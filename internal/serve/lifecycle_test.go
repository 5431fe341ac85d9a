package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/family"
	"hsmodel/internal/family/spline"
	"hsmodel/internal/faultinject"
	"hsmodel/internal/lifecycle"
	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

// postSample submits one core sample through POST /v2/models/default/samples.
func postSample(t testing.TB, url string, s core.Sample) hsmodel.SamplesResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v2/models/default/samples", hsmodel.SamplesRequest{
		Samples: []hsmodel.SampleWire{hsmodel.SampleToWire(s)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("samples: status %d: %s", resp.StatusCode, body)
	}
	var sr hsmodel.SamplesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func lifecycleStatus(t testing.TB, url string) lifecycle.Status {
	t.Helper()
	resp, body := getBody(t, url+"/v2/models/default/lifecycle")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lifecycle: status %d: %s", resp.StatusCode, body)
	}
	var st lifecycle.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// driftUntilPromoted posts the stream through the default entry's samples
// route one profile at a time under the x1.6 step shift the in-package
// promotion test uses, until the loop reports a promotion. It waits out
// every in-flight episode before the next post, so the submission order
// fully determines the outcome. Only the default entry's samples and
// lifecycle routes are requested.
func driftUntilPromoted(t testing.TB, url string, stream []core.Sample) {
	t.Helper()
	sched := &faultinject.DriftSchedule{Segments: []faultinject.DriftSegment{{From: 1, Factor: 1.6}}}
	deadline := time.Now().Add(2 * time.Minute)
	var promoted bool
	for i := 0; !promoted; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no promotion within deadline")
		}
		v := stream[i%len(stream)]
		v.CPI, _ = sched.Next(v.CPI)
		postSample(t, url, v)
		for {
			st := lifecycleStatus(t, url)
			if st.State != "retraining" {
				promoted = st.Promotions > 0
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestLifecyclePromotionAdvancesVersion: a promotion is a publish, counted
// when it happens. Nothing scrapes the model route or /metrics from boot
// until a promotion and a follow-up hot reload have both landed, and the
// served version still counts all three publications: bootstrap train,
// promotion, reload.
func TestLifecyclePromotionAdvancesVersion(t *testing.T) {
	tr := newTestTrainer(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := tr.Snapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	col := &core.Collector{ShardLen: 20_000, ShardPool: 12}
	stream := col.Collect([]*trace.App{trace.Bzip2(), trace.Hmmer(), trace.Sjeng()}, 30, 21)
	s, ts := newTestServer(t, Config{
		Trainer:   tr,
		ModelPath: path,
		Lifecycle: &lifecycle.Config{
			Drift:        lifecycle.DriftConfig{Target: 0.2},
			MinProfiles:  10,
			MinTrainRows: 24,
			ReservoirCap: 64,
			RingCap:      32,
			Seed:         11,
		},
	})

	driftUntilPromoted(t, ts.URL, stream)
	if g := tr.Published().Generation; g != 2 {
		t.Fatalf("generation %d after one promotion, want 2", g)
	}
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}

	if v := modelInfo(t, ts.URL).SnapshotVersion; v != 3 {
		t.Errorf("model snapshot_version %d, want 3", v)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	series := `hsserve_registry_model_snapshot_version{model="default"}`
	if v, ok := metricUint(string(body), series); !ok || v != 3 {
		t.Errorf("%s = %v (present %v), want 3", series, v, ok)
	}
}

// TestLifecycleDisabledIs404: without Config.Lifecycle the endpoint
// advertises the loop as absent.
func TestLifecycleDisabledIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := getBody(t, ts.URL+"/v2/models/default/lifecycle")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d with lifecycle disabled, want 404", resp.StatusCode)
	}
}

// TestLifecycleHTTPEpisode drives a scripted drift episode end to end over
// the wire: shifted samples trip the loop, a candidate is trained and
// promoted, the trainer's own store stays flat (samples are routed into the
// bounded stores), and both the lifecycle route and /metrics report the
// outcome.
func TestLifecycleHTTPEpisode(t *testing.T) {
	tr := newTestTrainer(t)
	bootstrapRows := tr.NumSamples()
	col := &core.Collector{ShardLen: 20_000, ShardPool: 12}
	stream := col.Collect([]*trace.App{trace.Bzip2(), trace.Hmmer(), trace.Sjeng()}, 30, 21)

	_, ts := newTestServer(t, Config{
		Trainer: tr,
		Lifecycle: &lifecycle.Config{
			Drift:        lifecycle.DriftConfig{Target: 0.2},
			MinProfiles:  10,
			MinTrainRows: 24,
			ReservoirCap: 64,
			RingCap:      32,
			Seed:         11,
		},
	})

	if st := lifecycleStatus(t, ts.URL); st.State != "stable" {
		t.Fatalf("initial state %q, want stable", st.State)
	}

	driftUntilPromoted(t, ts.URL, stream)

	st := lifecycleStatus(t, ts.URL)
	if st.Promotions != 1 || st.Rollbacks != 0 {
		t.Fatalf("promotions=%d rollbacks=%d, want 1/0 (status %+v)", st.Promotions, st.Rollbacks, st)
	}
	// Lifecycle mode keeps the trainer's store bounded: submissions landed in
	// the reservoir/ring, and promotion replaced the store with the bounded
	// training set rather than growing it.
	if rows := tr.NumSamples(); rows > bootstrapRows {
		t.Errorf("trainer store grew %d -> %d rows; lifecycle mode must keep it bounded", bootstrapRows, rows)
	}
	if st.ReservoirLen > st.ReservoirCap || st.RingLen > st.RingCap {
		t.Errorf("store occupancy exceeds caps: %+v", st)
	}

	_, body := getBody(t, ts.URL+"/metrics")
	for _, marker := range []string{
		`hsserve_lifecycle_episodes_total{model="default",kind="promotion"} 1`,
		`hsserve_lifecycle_state{model="default",state="stable"} 1`,
		`hsserve_lifecycle_store_occupancy{model="default",store="reservoir"}`,
		`hsserve_lifecycle_drift_score{model="default"}`,
		`hsserve_lifecycle_canary_err{model="default",role="candidate"}`,
	} {
		if !strings.Contains(string(body), marker) {
			t.Errorf("metrics missing %q", marker)
		}
	}
}

// modelInfo fetches and decodes GET /v2/models/default/model.
func modelInfo(t testing.TB, url string) hsmodel.ModelInfo {
	t.Helper()
	resp, body := getBody(t, url+"/v2/models/default/model")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model: status %d: %s", resp.StatusCode, body)
	}
	var info hsmodel.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestLifecyclePromotionCarriesFamily: when the live trainer runs family
// selection, a shadow-retrained candidate promoted by the lifecycle loop must
// surface its family identity on the wire — GET /v2/models/default/model
// reports the family and the selection scoreboard of the promoted snapshot,
// and /metrics labels the served family — not the bootstrap model's
// provenance.
func TestLifecyclePromotionCarriesFamily(t *testing.T) {
	tr := newTestTrainer(t)
	// Restrict selection to the reference family, the round a default
	// trainer runs, so each retrain episode stays cheap; the wire contract
	// under test is the same for any registered set.
	tr.Families = []family.Family{spline.New()}
	col := &core.Collector{ShardLen: 20_000, ShardPool: 12}
	stream := col.Collect([]*trace.App{trace.Bzip2(), trace.Hmmer(), trace.Sjeng()}, 60, 21)

	// MinTrainRows is sized so the shadow's selection round can fit the full
	// winning spec (more rows than design columns) and promote from the
	// genetic rung rather than degrading to stepwise.
	_, ts := newTestServer(t, Config{
		Trainer: tr,
		Lifecycle: &lifecycle.Config{
			Drift:        lifecycle.DriftConfig{Target: 0.2},
			MinProfiles:  10,
			MinTrainRows: 60,
			ReservoirCap: 128,
			RingCap:      32,
			Seed:         11,
		},
	})

	// The bootstrap model came from a default trainer's round over the
	// spline family alone: spline family, a one-entry scoreboard.
	before := modelInfo(t, ts.URL)
	if before.Family != spline.FamilyName {
		t.Fatalf("bootstrap family %q, want %q", before.Family, spline.FamilyName)
	}
	if _, ok := before.FamilyScores[spline.FamilyName]; !ok || len(before.FamilyScores) != 1 {
		t.Fatalf("bootstrap scoreboard %v, want exactly one spline entry", before.FamilyScores)
	}

	driftUntilPromoted(t, ts.URL, stream)

	after := modelInfo(t, ts.URL)
	if after.Family != spline.FamilyName {
		t.Errorf("promoted family %q, want %q", after.Family, spline.FamilyName)
	}
	if after.Rung != core.RungGenetic.String() || after.SnapshotVersion <= before.SnapshotVersion {
		t.Errorf("promoted rung %q at snapshot version %d (bootstrap %d), want %q past the bootstrap: the served snapshot is not the selection-produced candidate",
			after.Rung, after.SnapshotVersion, before.SnapshotVersion, core.RungGenetic)
	}
	if _, ok := after.FamilyScores[spline.FamilyName]; !ok {
		t.Errorf("promoted model lost its selection scoreboard: %v", after.FamilyScores)
	}

	_, body := getBody(t, ts.URL+"/metrics")
	marker := `hsserve_registry_model_family{model="default",family="spline"} 1`
	if !strings.Contains(string(body), marker) {
		t.Errorf("metrics missing %q", marker)
	}
}

// TestLifecycleRefusesUpdateTrue: on an entry with a control loop, posted
// samples go to the loop's bounded stores, so update:true has nothing new to
// train on and its result would bypass the canary. The server refuses it and
// the controller stays the only publisher.
func TestLifecycleRefusesUpdateTrue(t *testing.T) {
	tr := newTestTrainer(t)
	s, ts := newTestServer(t, Config{Trainer: tr, Lifecycle: &lifecycle.Config{}})
	gen := tr.Published().Generation
	_, valid := testData(t)

	req := hsmodel.SamplesRequest{Update: true}
	for _, v := range valid[:8] {
		req.Samples = append(req.Samples, hsmodel.SampleToWire(v))
	}
	resp, body := postJSON(t, ts.URL+"/v2/models/default/samples", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("samples: status %d: %s", resp.StatusCode, body)
	}
	var sr hsmodel.SamplesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.UpdateStarted {
		t.Error("update:true started an unchecked retrain on a lifecycle entry")
	}
	s.Close() // waits out any update
	if g := tr.Published().Generation; g != gen {
		t.Errorf("generation %d -> %d: a model was published outside the control loop", gen, g)
	}
}

// TestLifecycleRouteOnManifestEntry: every entry with a control loop reports
// its status on its own lifecycle route, a manifest entry included; an entry
// without a loop answers 404.
func TestLifecycleRouteOnManifestEntry(t *testing.T) {
	tr := newTestTrainer(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := tr.Snapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "fleet.json")
	data, err := json.Marshal(hsmodel.Manifest{Models: []hsmodel.RegisterRequest{
		{ID: "m-lc", ModelPath: path, Lifecycle: &hsmodel.LifecycleWire{Seed: 3}},
		{ID: "m-plain"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Trainer: tr, ManifestPath: manifest})

	_, valid := testData(t)
	resp, body := postJSON(t, ts.URL+"/v2/models/m-lc/samples", hsmodel.SamplesRequest{
		Samples: []hsmodel.SampleWire{hsmodel.SampleToWire(valid[0])},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("m-lc samples: status %d: %s", resp.StatusCode, body)
	}
	resp, body = getBody(t, ts.URL+"/v2/models/m-lc/lifecycle")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("m-lc lifecycle: status %d: %s", resp.StatusCode, body)
	}
	var st lifecycle.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "stable" || st.Submissions != 1 {
		t.Fatalf("m-lc lifecycle state %q, %d submissions, want stable, 1: %s", st.State, st.Submissions, body)
	}
	for _, id := range []string{"m-plain", "default"} {
		if resp, body := getBody(t, ts.URL+"/v2/models/"+id+"/lifecycle"); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s lifecycle without a loop: status %d, want 404: %s", id, resp.StatusCode, body)
		}
	}
	_, page := getBody(t, ts.URL+"/metrics")
	marker := `hsserve_requests_total{model="m-lc",endpoint="v2_lifecycle",code="200"} 1`
	if !strings.Contains(string(page), marker) {
		t.Errorf("metrics page missing %q", marker)
	}
}

// TestLifecycleMetricsPerEntry: /metrics carries the hsserve_lifecycle_*
// series of every entry with a control loop, each labeled by its model id,
// a manifest entry's included, and none for an entry without a loop.
func TestLifecycleMetricsPerEntry(t *testing.T) {
	tr := newTestTrainer(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := tr.Snapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "fleet.json")
	data, err := json.Marshal(hsmodel.Manifest{Models: []hsmodel.RegisterRequest{
		{ID: "m-lc", ModelPath: path, Lifecycle: &hsmodel.LifecycleWire{Seed: 3}},
		{ID: "m-plain"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Trainer:      tr,
		ManifestPath: manifest,
		Lifecycle:    &lifecycle.Config{Seed: 5},
	})

	_, valid := testData(t)
	resp, body := postJSON(t, ts.URL+"/v2/models/m-lc/samples", hsmodel.SamplesRequest{
		Samples: []hsmodel.SampleWire{hsmodel.SampleToWire(valid[0]), hsmodel.SampleToWire(valid[1])},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("m-lc samples: status %d: %s", resp.StatusCode, body)
	}

	_, page := getBody(t, ts.URL+"/metrics")
	for _, marker := range []string{
		`hsserve_lifecycle_state{model="m-lc",state="stable"} 1`,
		`hsserve_lifecycle_state{model="default",state="stable"} 1`,
		`hsserve_lifecycle_drift_score{model="m-lc"}`,
		`hsserve_lifecycle_err_ewma{model="m-lc"}`,
		`hsserve_lifecycle_store_occupancy{model="m-lc",store="reservoir"} 2`,
		`hsserve_lifecycle_store_occupancy{model="default",store="reservoir"} 0`,
		`hsserve_lifecycle_store_capacity{model="m-lc",store="ring"}`,
		`hsserve_lifecycle_episodes_total{model="m-lc",kind="retrain"} 0`,
		`hsserve_lifecycle_canary_err{model="m-lc",role="incumbent"}`,
	} {
		if !strings.Contains(string(page), marker) {
			t.Errorf("metrics page missing %q", marker)
		}
	}
	if strings.Contains(string(page), `hsserve_lifecycle_state{model="m-plain"`) {
		t.Error("metrics page has lifecycle series for m-plain, which has no loop")
	}
	if n := strings.Count(string(page), "# TYPE hsserve_lifecycle_state "); n != 1 {
		t.Errorf("hsserve_lifecycle_state has %d TYPE lines, want 1", n)
	}
}

// TestLifecycleWithoutModelRefused: a control loop observes drift only
// through a trained snapshot and refuses update:true, so an entry with a
// loop and no model could never get one. Registration refuses it over the
// wire (400, entry absent), in a manifest, and for the default entry; a
// model path to load from is enough.
func TestLifecycleWithoutModelRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v2/models", hsmodel.RegisterRequest{
		ID: "m-lc", Population: 10, Generations: 2, Lifecycle: &hsmodel.LifecycleWire{},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register lifecycle entry without a model: status %d, want 400: %s", resp.StatusCode, body)
	}
	if resp, body := getBody(t, ts.URL+"/v2/models/m-lc/model"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused entry is registered: status %d: %s", resp.StatusCode, body)
	}

	dir := t.TempDir()
	manifest := filepath.Join(dir, "fleet.json")
	data, err := json.Marshal(hsmodel.Manifest{Models: []hsmodel.RegisterRequest{
		{ID: "m-lc", Lifecycle: &hsmodel.LifecycleWire{}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Trainer: newTestTrainer(t), ManifestPath: manifest}); !errors.Is(err, errLifecycleNoModel) {
		t.Fatalf("manifest with a model-less lifecycle entry: err %v, want ErrLifecycleNoModel", err)
	}

	untrained := Config{Trainer: core.NewTrainer(nil), Lifecycle: &lifecycle.Config{}}
	if _, err := New(untrained); !errors.Is(err, errLifecycleNoModel) {
		t.Fatalf("untrained default entry with a loop: err %v, want ErrLifecycleNoModel", err)
	}
	untrained.ModelPath = filepath.Join(dir, "model.json") // loaded by Reload later
	s, err := New(untrained)
	if err != nil {
		t.Fatalf("untrained default entry with a loop and a model path: %v", err)
	}
	s.Close()
}
