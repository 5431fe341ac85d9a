// Tests for the multi-model surface of the server: the v2 route family, the
// retired v1 routes, manifest persistence, and the registry metrics.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hsmodel/internal/core"
	"hsmodel/pkg/hsmodel"
)

// doJSON runs one request with an arbitrary method and decodes nothing.
func doJSON(t testing.TB, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPredictCanonicalEncoding: /v2/models/default answers predictions
// bit-identical to the default trainer's snapshot, its predict and
// predict:batch bodies are byte-identical to the wire schema's canonical
// encoding (no field may leak into them), and its model body carries the
// entry's address fields.
func TestPredictCanonicalEncoding(t *testing.T) {
	tr := newTestTrainer(t)
	_, ts := newTestServer(t, Config{Trainer: tr})
	_, valid := testData(t)

	var batch hsmodel.BatchPredictRequest
	var want hsmodel.BatchPredictResponse
	for i, v := range valid[:8] {
		hw := v.HW
		req := hsmodel.PredictRequest{X: v.X[:], Config: &hw}
		resp, body := postJSON(t, ts.URL+"/v2/models/default/predict", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample %d: status %d: %s", i, resp.StatusCode, body)
		}
		var pr hsmodel.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		cpi, err := tr.Snapshot().PredictShard(v.X, v.HW)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pr.CPI) != math.Float64bits(cpi) {
			t.Fatalf("sample %d: served %v, snapshot %v", i, pr.CPI, cpi)
		}
		canon, err := json.Marshal(hsmodel.PredictResponse{CPI: cpi, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(canon)+"\n" {
			t.Fatalf("sample %d: body %q is not the canonical encoding %q", i, body, canon)
		}
		batch.Requests = append(batch.Requests, req)
		want.Results = append(want.Results, hsmodel.BatchPredictItem{CPI: cpi, Shards: 1})
	}

	resp, body := postJSON(t, ts.URL+"/v2/models/default/predict:batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	canon, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(canon)+"\n" {
		t.Fatalf("batch body %q is not the canonical encoding %q", body, canon)
	}

	_, body = getBody(t, ts.URL+"/v2/models/default/model")
	var info hsmodel.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Model != "default" || info.ArchSpace == "" {
		t.Fatalf("model body missing address fields: %s", body)
	}
}

// TestV1RoutesGone: the retired /v1 aliases are not routed.
func TestV1RoutesGone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, valid := testData(t)
	resp, body := postJSON(t, ts.URL+"/v1/predict", hsmodel.PredictRequest{X: valid[0].X[:]})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/predict: status %d, want 404: %s", resp.StatusCode, body)
	}
	for _, path := range []string{"/v1/model", "/v1/lifecycle"} {
		if resp, _ := getBody(t, ts.URL+path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSamplesFanOut: one fan_out POST to the default entry advances every
// matching entry, the addressed route without fan_out feeds only its entry,
// a non-default entry retrains through its addressed samples route, and the
// "app:<name>" alias resolves over HTTP.
func TestSamplesFanOut(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, req := range []hsmodel.RegisterRequest{
		{ID: "m-bzip2", Application: "bzip2"},
		{ID: "m-all", Seed: 13, ShardLen: 20_000, Population: 8, Generations: 2},
	} {
		if resp, body := postJSON(t, ts.URL+"/v2/models", req); resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %q: status %d: %s", req.ID, resp.StatusCode, body)
		}
	}
	_, valid := testData(t)

	// A zero CPI anywhere in the body refuses the whole request: no entry's
	// store moves.
	bad := hsmodel.SampleToWire(valid[0])
	bad.CPI = 0
	resp, body := postJSON(t, ts.URL+"/v2/models/default/samples", hsmodel.SamplesRequest{
		Samples: []hsmodel.SampleWire{hsmodel.SampleToWire(valid[1]), bad},
		FanOut:  true,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cpi 0 sample: status %d, want 400: %s", resp.StatusCode, body)
	}
	if got := s.def.trainer.NumSamples(); got != len(trainStore) {
		t.Fatalf("cpi 0 sample moved the default store to %d samples, want %d", got, len(trainStore))
	}

	sreq := hsmodel.SamplesRequest{FanOut: true}
	perApp := map[string]int{}
	for _, v := range valid {
		sreq.Samples = append(sreq.Samples, hsmodel.SampleToWire(v))
		perApp[v.App]++
	}
	resp, body = postJSON(t, ts.URL+"/v2/models/default/samples", sreq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("samples: status %d: %s", resp.StatusCode, body)
	}
	var sr hsmodel.SamplesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Accepted != len(valid) {
		t.Fatalf("accepted %d, want %d", sr.Accepted, len(valid))
	}
	if got := strings.Join(sr.Models, " "); got != "default m-all m-bzip2" {
		t.Fatalf("fan_out listed models [%s], want [default m-all m-bzip2]", got)
	}
	base := len(trainStore) // the default entry's bootstrap store
	counts := map[string]int{
		"default": base + len(valid),
		"m-bzip2": perApp["bzip2"],
		"m-all":   len(valid),
	}
	assertCounts := func() {
		t.Helper()
		for id, want := range counts {
			e, ok := s.reg.resolve(id)
			if !ok {
				t.Fatalf("entry %q missing", id)
			}
			if got := e.trainer.NumSamples(); got != want {
				t.Fatalf("entry %q: %d samples, want %d", id, got, want)
			}
		}
	}
	assertCounts()

	// Without fan_out the addressed route feeds only its entry and lists no
	// models.
	one := hsmodel.SamplesRequest{Samples: []hsmodel.SampleWire{hsmodel.SampleToWire(valid[0])}}
	one.Samples[0].App = "bzip2"
	resp, body = postJSON(t, ts.URL+"/v2/models/m-bzip2/samples", one)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("m-bzip2 samples: status %d: %s", resp.StatusCode, body)
	}
	var sr2 hsmodel.SamplesResponse
	if err := json.Unmarshal(body, &sr2); err != nil {
		t.Fatal(err)
	}
	if sr2.Models != nil {
		t.Fatalf("entry-scoped samples body listed models: %s", body)
	}
	counts["m-bzip2"]++
	assertCounts()

	// A non-default entry retrains from its addressed route and serves the
	// result under its own name.
	var train hsmodel.SamplesRequest
	for _, v := range trainStore {
		train.Samples = append(train.Samples, hsmodel.SampleToWire(v))
	}
	train.Update = true
	resp, body = postJSON(t, ts.URL+"/v2/models/m-all/samples", train)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("m-all samples: status %d: %s", resp.StatusCode, body)
	}
	var sr3 hsmodel.SamplesResponse
	if err := json.Unmarshal(body, &sr3); err != nil {
		t.Fatal(err)
	}
	if !sr3.UpdateStarted {
		t.Fatalf("m-all samples: update not started: %s", body)
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("m-all not trained within deadline")
		}
		_, body = getBody(t, ts.URL+"/v2/models/m-all/model")
		var info hsmodel.ModelInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Trained {
			if info.Model != "m-all" || info.TrainedRows <= 0 {
				t.Fatalf("m-all trained info: model %q, %d rows", info.Model, info.TrainedRows)
			}
			break
		}
	}

	// The alias reaches the entry scoped to the application, not the
	// wildcard entries beside it.
	resp, body = getBody(t, ts.URL+"/v2/models/app:bzip2/model")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("app:bzip2: status %d: %s", resp.StatusCode, body)
	}
	var alias hsmodel.ModelInfo
	if err := json.Unmarshal(body, &alias); err != nil {
		t.Fatal(err)
	}
	if alias.Model != "m-bzip2" {
		t.Fatalf("app:bzip2 routed to %q (application %q), want m-bzip2", alias.Model, alias.Application)
	}
}

// TestSamplesFullStore: an addressed samples POST that would overflow the
// entry's store answers 507 with an ErrorResponse, absorbs nothing and
// starts no update; a fan_out POST with one full entry and one entry with
// room answers 200 and lists only the entry with room.
func TestSamplesFullStore(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v2/models", hsmodel.RegisterRequest{ID: "m-room"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register m-room: status %d: %s", resp.StatusCode, body)
	}
	train, valid := testData(t)
	full := make([]core.Sample, core.MaxStoreRows)
	for i := range full {
		full[i] = train[i%len(train)]
	}
	def := s.def.trainer
	def.SetSamples(full)
	version := def.StoreVersion()

	req := hsmodel.SamplesRequest{Samples: []hsmodel.SampleWire{hsmodel.SampleToWire(valid[0])}, Update: true}
	resp, body := postJSON(t, ts.URL+"/v2/models/default/samples", req)
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("samples to a full store: status %d, want 507: %s", resp.StatusCode, body)
	}
	var er hsmodel.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("507 body is not an ErrorResponse (err %v): %s", err, body)
	}
	if got := def.NumSamples(); got != core.MaxStoreRows || def.StoreVersion() != version {
		t.Fatalf("refused POST moved the store: %d samples at version %d, want %d at %d",
			got, def.StoreVersion(), core.MaxStoreRows, version)
	}
	if got := s.metrics.updatesStarted.Load(); got != 0 {
		t.Fatalf("refused POST started %d updates, want 0", got)
	}

	req.Update, req.FanOut = false, true
	resp, body = postJSON(t, ts.URL+"/v2/models/default/samples", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fan_out with a full entry: status %d, want 200: %s", resp.StatusCode, body)
	}
	var sr hsmodel.SamplesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sr.Models, " "); got != "m-room" {
		t.Fatalf("fan_out listed models [%s], want [m-room]", got)
	}
	room, _ := s.reg.resolve("m-room")
	if got := room.trainer.NumSamples(); got != 1 {
		t.Fatalf("m-room holds %d samples, want 1", got)
	}
	if got := def.NumSamples(); got != core.MaxStoreRows {
		t.Fatalf("fan_out moved the full store to %d samples", got)
	}
}

// TestRegisterUnregisterHTTP drives the fleet over the wire and asserts the
// manifest file tracks it.
func TestRegisterUnregisterHTTP(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "fleet.json")
	_, ts := newTestServer(t, Config{ManifestPath: manifest})

	// Reserved and malformed registrations are refused.
	if resp, _ := postJSON(t, ts.URL+"/v2/models", hsmodel.RegisterRequest{ID: "default"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("registering the reserved id: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v2/models", hsmodel.RegisterRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("registering an empty id: status %d", resp.StatusCode)
	}

	reg := hsmodel.RegisterRequest{ID: "m-live", Application: "bzip2", Seed: 5}
	resp, body := postJSON(t, ts.URL+"/v2/models", reg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	var st hsmodel.ModelStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "m-live" || st.Application != "bzip2" || st.Trained {
		t.Fatalf("register status %+v", st)
	}
	if resp, _ := postJSON(t, ts.URL+"/v2/models", reg); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: status %d, want 409", resp.StatusCode)
	}

	// The manifest persisted the entry (default excluded).
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var man hsmodel.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Models) != 1 || man.Models[0].ID != "m-live" {
		t.Fatalf("manifest %s", data)
	}

	// Listing shows both entries and names the default.
	_, body = getBody(t, ts.URL+"/v2/models")
	var listing hsmodel.RegistryStatus
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Models) != 2 || listing.Default != "default" {
		t.Fatalf("listing %s", body)
	}

	// Unregister drains and the manifest empties; the default is protected.
	if resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v2/models/default", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unregistering the default: status %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v2/models/m-live", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("unregister: status %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v2/models/m-live", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double unregister: status %d", resp.StatusCode)
	}
	data, err = os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	man = hsmodel.Manifest{}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Models) != 0 {
		t.Fatalf("manifest after unregister: %s", data)
	}
}

// TestManifestBoot: a server constructed over a manifest registers its
// entries; a manifest naming the reserved entry refuses to boot.
func TestManifestBoot(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "fleet.json")
	man := hsmodel.Manifest{Models: []hsmodel.RegisterRequest{
		{ID: "m-a", Application: "bzip2"},
		{ID: "m-b"},
	}}
	data, _ := json.Marshal(man)
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{ManifestPath: manifest})
	if got := len(s.reg.list()); got != 3 {
		t.Fatalf("booted with %d entries, want 3", got)
	}

	bad := filepath.Join(dir, "bad.json")
	data, _ = json.Marshal(hsmodel.Manifest{Models: []hsmodel.RegisterRequest{{ID: "default"}}})
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Trainer: newTestTrainer(t), ManifestPath: bad}); err == nil {
		t.Fatal("manifest naming the reserved entry booted")
	}
}

// TestRegisterRejectsUnknownArchSpace: every entry models the Table 2
// space, so a registration naming another one is refused — 400 over the
// wire, a failed boot from a manifest — while naming "table2" is accepted.
func TestRegisterRejectsUnknownArchSpace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v2/models", hsmodel.RegisterRequest{ID: "m-arch", ArchSpace: "custom"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "custom") {
		t.Fatalf("register arch_space custom: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := getBody(t, ts.URL+"/v2/models/m-arch/model"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused entry is served: status %d", resp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/v2/models", hsmodel.RegisterRequest{ID: "m-table2", ArchSpace: "table2"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register arch_space table2: status %d: %s", resp.StatusCode, body)
	}

	manifest := filepath.Join(t.TempDir(), "fleet.json")
	data, _ := json.Marshal(hsmodel.Manifest{Models: []hsmodel.RegisterRequest{{ID: "m-arch", ArchSpace: "custom"}}})
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Trainer: newTestTrainer(t), ManifestPath: manifest}); err == nil || !strings.Contains(err.Error(), "custom") {
		t.Fatalf("manifest entry with arch_space custom: New err = %v, want a refusal naming the space", err)
	}
}

// TestRegisterRejectsBadModelID: an id outside [A-Za-z0-9._-]{1,64} is
// refused — 400 over the wire, a failed boot from a manifest — so every id
// is a plain label on /metrics; an id of exactly 64 allowed characters is
// accepted.
func TestRegisterRejectsBadModelID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, id := range []string{"bad\u0001id", "app:bzip2", "with space", strings.Repeat("m", 65)} {
		resp, body := postJSON(t, ts.URL+"/v2/models", hsmodel.RegisterRequest{ID: id})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "model id") {
			t.Errorf("register id %q: status %d: %s", id, resp.StatusCode, body)
		}

		manifest := filepath.Join(t.TempDir(), "fleet.json")
		data, _ := json.Marshal(hsmodel.Manifest{Models: []hsmodel.RegisterRequest{{ID: id}}})
		if err := os.WriteFile(manifest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := New(Config{Trainer: newTestTrainer(t), ManifestPath: manifest}); err == nil || !strings.Contains(err.Error(), "model id") {
			if s != nil {
				s.Close()
			}
			t.Errorf("manifest entry with id %q: New err = %v, want a refusal of the id", id, err)
		}
	}
	if _, body := getBody(t, ts.URL+"/metrics"); strings.Contains(string(body), `\x01`) {
		t.Errorf("a refused id reached /metrics:\n%s", body)
	}
	long := "m-" + strings.Repeat("a", 62)
	if resp, body := postJSON(t, ts.URL+"/v2/models", hsmodel.RegisterRequest{ID: long}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register a 64-character id: status %d: %s", resp.StatusCode, body)
	}
}

// TestRegisterChecksRequestBeforeLoadingModel: a registration that breaks a
// request rule is refused for that rule before its model_path is read. The
// path names no file, so opening it would answer a snapshot-load error
// instead of the 400 naming the rule.
func TestRegisterChecksRequestBeforeLoadingModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	missing := filepath.Join(t.TempDir(), "absent.json")
	for _, tc := range []struct {
		rule string
		req  hsmodel.RegisterRequest
	}{
		{"model id", hsmodel.RegisterRequest{ID: "bad id", ModelPath: missing}},
		{"architecture space", hsmodel.RegisterRequest{ID: "m-arch", ArchSpace: "custom", ModelPath: missing}},
		{"population", hsmodel.RegisterRequest{ID: "m-neg", Population: -1, ModelPath: missing}},
	} {
		resp, body := postJSON(t, ts.URL+"/v2/models", tc.req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.rule) {
			t.Errorf("register breaking the %s rule: status %d: %s", tc.rule, resp.StatusCode, body)
		}
		if strings.Contains(string(body), errModelLoad.Error()) {
			t.Errorf("register breaking the %s rule read model_path first: %s", tc.rule, body)
		}
	}
}

// TestRegisterRejectsNegativeSearchSizes: a registration with a negative
// population, generations or shard_len is refused — 400 over the wire naming
// the field, a failed boot from a manifest — instead of training with the
// defaults a non-positive size falls back to; 0 still means the default.
func TestRegisterRejectsNegativeSearchSizes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		field string
		req   hsmodel.RegisterRequest
	}{
		{"population", hsmodel.RegisterRequest{ID: "m-neg", Population: -1}},
		{"generations", hsmodel.RegisterRequest{ID: "m-neg", Generations: -3}},
		{"shard_len", hsmodel.RegisterRequest{ID: "m-neg", ShardLen: -5000}},
	} {
		resp, body := postJSON(t, ts.URL+"/v2/models", tc.req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.field) {
			t.Errorf("register with negative %s: status %d: %s", tc.field, resp.StatusCode, body)
		}
		if resp, _ := getBody(t, ts.URL+"/v2/models/m-neg/model"); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("refused entry is served: status %d", resp.StatusCode)
		}

		manifest := filepath.Join(t.TempDir(), "fleet.json")
		data, _ := json.Marshal(hsmodel.Manifest{Models: []hsmodel.RegisterRequest{tc.req}})
		if err := os.WriteFile(manifest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := New(Config{Trainer: newTestTrainer(t), ManifestPath: manifest}); err == nil || !strings.Contains(err.Error(), tc.field) {
			if s != nil {
				s.Close()
			}
			t.Errorf("manifest entry with negative %s: New err = %v, want a refusal naming it", tc.field, err)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v2/models", hsmodel.RegisterRequest{ID: "m-zero"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register with zero sizes: status %d: %s", resp.StatusCode, body)
	}
}

// TestManifestConcurrentChanges: concurrent registrations and
// unregistrations each rewrite the manifest, and once they have all
// returned the file must parse and list exactly the live fleet. Writers that
// shared one temp file without a lock tore the file or lost entries, and
// every run failed within its first ten rounds; sixty leave no doubt.
func TestManifestConcurrentChanges(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "fleet.json")
	_, ts := newTestServer(t, Config{ManifestPath: manifest})
	const rounds, width = 60, 24
	ids := make([]string, width)
	for i := range ids {
		ids[i] = fmt.Sprintf("m-%02d", i)
	}
	// fanOut sends one request per id concurrently and checks every status.
	fanOut := func(method string, url, body func(id string) string, want int) {
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				req, err := http.NewRequest(method, url(id), strings.NewReader(body(id)))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Errorf("%s %s: status %d, want %d", req.Method, req.URL.Path, resp.StatusCode, want)
				}
			}(id)
		}
		wg.Wait()
	}
	check := func(round int, want []string) {
		t.Helper()
		data, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		var man hsmodel.Manifest
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatalf("round %d: manifest does not parse: %v", round, err)
		}
		got := make([]string, len(man.Models))
		for i, m := range man.Models {
			got[i] = m.ID
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("round %d: manifest lists %v, want %v", round, got, want)
		}
	}
	for round := 0; round < rounds && !t.Failed(); round++ {
		fanOut(http.MethodPost,
			func(string) string { return ts.URL + "/v2/models" },
			func(id string) string { return `{"id":"` + id + `"}` },
			http.StatusCreated)
		check(round, ids)
		fanOut(http.MethodDelete,
			func(id string) string { return ts.URL + "/v2/models/" + id },
			func(string) string { return "" },
			http.StatusNoContent)
		check(round, nil)
	}
}

// TestV2UnknownModel: addressing a model that does not exist answers 404
// with the wire error body.
func TestV2UnknownModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/v2/models/nonesuch/model")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er hsmodel.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("error body %s (%v)", body, err)
	}
}

// TestRegistryMetricsPage: the scrape carries the per-model series of
// every entry, and the request counter splits entry-addressed requests by
// model.
func TestRegistryMetricsPage(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v2/models", hsmodel.RegisterRequest{ID: "m-x", Application: "bzip2"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	_, _ = getBody(t, ts.URL+"/v2/models/m-x/model")
	_, page := getBody(t, ts.URL+"/metrics")
	for _, marker := range []string{
		`hsserve_registry_model_trained{model="default"} 1`,
		`hsserve_registry_model_trained{model="m-x"} 0`,
		fmt.Sprintf(`hsserve_registry_model_samples{model="default"} %d`, len(trainStore)),
		`hsserve_registry_model_queue_depth{model="default"} 0`,
		`hsserve_registry_model_queue_depth{model="m-x"} 0`,
		`hsserve_requests_total{model="m-x",endpoint="v2_model",code="200"} 1`,
	} {
		if !strings.Contains(string(page), marker) {
			t.Fatalf("metrics page missing %q", marker)
		}
	}
	if n := strings.Count(string(page), "\nhsserve_registry_model_trained{"); n != 2 {
		t.Errorf("%d hsserve_registry_model_trained series, want one per entry (2)", n)
	}
	assertOnePerModel(t, string(page), "default", "m-x")
}

// TestRegistryMetricsPerEntryPublication: a registered entry that trains
// through its own samples route reports its publication on the scrape like
// the default entry does — generation, age and family, once each.
func TestRegistryMetricsPerEntryPublication(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reg := hsmodel.RegisterRequest{ID: "m-all", Seed: 13, ShardLen: 20_000, Population: 8, Generations: 2}
	if resp, body := postJSON(t, ts.URL+"/v2/models", reg); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	train := hsmodel.SamplesRequest{Update: true}
	for _, v := range trainStore {
		train.Samples = append(train.Samples, hsmodel.SampleToWire(v))
	}
	resp, body := postJSON(t, ts.URL+"/v2/models/m-all/samples", train)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("m-all samples: status %d: %s", resp.StatusCode, body)
	}
	var info hsmodel.ModelInfo
	for deadline := time.Now().Add(2 * time.Minute); !info.Trained; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("m-all not trained within deadline")
		}
		_, body = getBody(t, ts.URL+"/v2/models/m-all/model")
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
	}

	_, page := getBody(t, ts.URL+"/metrics")
	for _, marker := range []string{
		`hsserve_registry_model_snapshot_version{model="m-all"} 1`,
		`hsserve_registry_model_snapshot_age_seconds{model="m-all"} `,
		fmt.Sprintf(`hsserve_registry_model_family{model="m-all",family=%q} 1`, info.Family),
		`hsserve_registry_model_trained{model="m-all"} 1`,
		fmt.Sprintf(`hsserve_registry_model_trained_rows{model="m-all"} %d`, len(trainStore)),
	} {
		if !strings.Contains(string(page), marker) {
			t.Errorf("metrics page missing %q", marker)
		}
	}
	assertOnePerModel(t, string(page), "default", "m-all")
}

// assertOnePerModel checks that the scrape reports every per-entry fact
// exactly once for each of ids (the family once per trained entry), and
// none of the retired unlabeled or duplicate series.
func assertOnePerModel(t *testing.T, page string, ids ...string) {
	t.Helper()
	for _, id := range ids {
		label := fmt.Sprintf(`{model=%q`, id)
		for _, gauge := range []string{"trained", "snapshot_version", "snapshot_age_seconds", "samples", "trained_rows", "queue_depth"} {
			if n := strings.Count(page, "\nhsserve_registry_model_"+gauge+label+"}"); n != 1 {
				t.Errorf("hsserve_registry_model_%s for %q appears %d times, want 1", gauge, id, n)
			}
		}
		want := 0
		if trained, _ := metricUint(page, "hsserve_registry_model_trained"+label+"}"); trained == 1 {
			want = 1
		}
		if n := strings.Count(page, "\nhsserve_registry_model_family"+label+","); n != want {
			t.Errorf("hsserve_registry_model_family for %q appears %d times, want %d", id, n, want)
		}
	}
	for _, retired := range []string{
		"hsserve_snapshot_version", "hsserve_snapshot_age_seconds", "hsserve_model_trained", "hsserve_model_family",
		"hsserve_model_requests_total", "hsserve_registry_models", "hsserve_registry_queue_depth",
	} {
		for _, sep := range []string{" ", "{"} {
			if strings.Contains(page, "\n"+retired+sep) {
				t.Errorf("metrics page still carries %s", retired)
			}
		}
	}
}
