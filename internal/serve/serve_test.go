package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/genetic"
	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

// testSamples are collected once: simulation dominates fixture cost and the
// profiles are deterministic in the seed.
var (
	sampleOnce sync.Once
	trainStore []core.Sample
	validStore []core.Sample
)

func testData(t testing.TB) (train, valid []core.Sample) {
	t.Helper()
	sampleOnce.Do(func() {
		col := &core.Collector{ShardLen: 20_000, ShardPool: 12}
		apps := []*trace.App{trace.Bzip2(), trace.Hmmer(), trace.Sjeng()}
		trainStore = col.Collect(apps, 40, 7)
		validStore = col.Collect(apps, 8, 8)
	})
	return trainStore, validStore
}

// newTestTrainer returns a freshly trained small trainer. Each test gets its
// own so sample mutation does not leak across tests.
func newTestTrainer(t testing.TB) *core.Trainer {
	t.Helper()
	train, _ := testData(t)
	tr := core.NewTrainer(append([]core.Sample(nil), train...))
	tr.ShardLen = 20_000
	tr.Search = genetic.Params{PopulationSize: 10, Generations: 2, Seed: 3}
	if err := tr.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tr
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Trainer == nil {
		cfg.Trainer = newTestTrainer(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close() // waits for outstanding requests
		s.Close()
	})
	return s, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestPredictBitIdenticalToSnapshot(t *testing.T) {
	tr := newTestTrainer(t)
	_, ts := newTestServer(t, Config{Trainer: tr})
	_, valid := testData(t)

	snap := tr.Snapshot()
	for i, v := range valid {
		want, err := snap.PredictShard(v.X, v.HW)
		if err != nil {
			t.Fatal(err)
		}
		hw := v.HW
		resp, body := postJSON(t, ts.URL+"/v1/predict", hsmodel.PredictRequest{
			X:      v.X[:],
			Config: &hw,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample %d: status %d: %s", i, resp.StatusCode, body)
		}
		var pr hsmodel.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pr.CPI) != math.Float64bits(want) {
			t.Fatalf("sample %d: HTTP prediction %v != snapshot prediction %v", i, pr.CPI, want)
		}
		if pr.Shards != 1 {
			t.Errorf("sample %d: shards = %d, want 1", i, pr.Shards)
		}
	}

	// The batch path — every item rides one multi-item batcher job answered
	// through contiguous PredictBatch sweeps — must be bit-identical too.
	var batchReq hsmodel.BatchPredictRequest
	for _, v := range valid {
		hw := v.HW
		batchReq.Requests = append(batchReq.Requests, hsmodel.PredictRequest{X: v.X[:], Config: &hw})
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict:batch", batchReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br hsmodel.BatchPredictResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(valid) {
		t.Fatalf("batch returned %d results, want %d", len(br.Results), len(valid))
	}
	for i, v := range valid {
		want, err := snap.PredictShard(v.X, v.HW)
		if err != nil {
			t.Fatal(err)
		}
		if br.Results[i].Error != "" {
			t.Fatalf("batch item %d: %s", i, br.Results[i].Error)
		}
		if math.Float64bits(br.Results[i].CPI) != math.Float64bits(want) {
			t.Fatalf("batch item %d: HTTP prediction %v != snapshot prediction %v", i, br.Results[i].CPI, want)
		}
	}
}

func TestPredictApplicationAndArch(t *testing.T) {
	tr := newTestTrainer(t)
	_, ts := newTestServer(t, Config{Trainer: tr})
	_, valid := testData(t)

	var shards [][]float64
	var xs []hsmodel.Characteristics
	for _, v := range valid[:4] {
		shards = append(shards, v.X[:])
		xs = append(xs, v.X)
	}
	arch := []int{2, 2, 1, 2, 1, 1, 2, 2, 1, 1, 1, 0, 1} // baseline indices
	resp, body := postJSON(t, ts.URL+"/v1/predict", hsmodel.PredictRequest{Shards: shards, Arch: arch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr hsmodel.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	want, err := tr.Snapshot().PredictApplication(xs, hsmodel.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(pr.CPI) != math.Float64bits(want) {
		t.Fatalf("application prediction %v != %v", pr.CPI, want)
	}
	if pr.Shards != 4 {
		t.Errorf("shards = %d, want 4", pr.Shards)
	}
}

func TestPredictErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  hsmodel.PredictRequest
		code int
	}{
		{"no inputs", hsmodel.PredictRequest{}, http.StatusBadRequest},
		{"short x", hsmodel.PredictRequest{X: []float64{1, 2}}, http.StatusBadRequest},
		{"bad arch", hsmodel.PredictRequest{X: make([]float64, 13), Arch: []int{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/predict", tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, body)
		}
		var er hsmodel.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not an ErrorResponse: %s", tc.name, body)
		}
	}
}

func TestUntrainedServes503(t *testing.T) {
	tr := core.NewTrainer(nil)
	_, ts := newTestServer(t, Config{Trainer: tr})
	_, valid := testData(t)
	resp, body := postJSON(t, ts.URL+"/v1/predict", hsmodel.PredictRequest{X: valid[0].X[:]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	// healthz still answers, reporting the untrained state.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hr.StatusCode)
	}
}

// TestBatchCoalescing is the tentpole acceptance test: 64 concurrent clients
// POSTing predict:batch must be coalesced by the micro-batcher (mean batch
// size > 1) and every returned prediction must be bit-identical to a direct
// Snapshot.PredictShard call.
func TestBatchCoalescing(t *testing.T) {
	tr := newTestTrainer(t)
	s, ts := newTestServer(t, Config{
		Trainer:  tr,
		MaxBatch: 32,
		MaxWait:  5 * time.Millisecond,
	})
	_, valid := testData(t)
	snap := tr.Snapshot()

	const clients = 64
	type result struct {
		got  float64
		want float64
		err  error
	}
	results := make([]result, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	client := ts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: clients}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			v := valid[c%len(valid)]
			want, _ := snap.PredictShard(v.X, v.HW)
			hw := v.HW
			data, _ := json.Marshal(hsmodel.BatchPredictRequest{
				Requests: []hsmodel.PredictRequest{{X: v.X[:], Config: &hw}},
			})
			<-start
			resp, err := client.Post(ts.URL+"/v1/predict:batch", "application/json", bytes.NewReader(data))
			if err != nil {
				results[c] = result{err: err}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results[c] = result{err: fmt.Errorf("status %d: %s", resp.StatusCode, body)}
				return
			}
			var br hsmodel.BatchPredictResponse
			if err := json.Unmarshal(body, &br); err != nil {
				results[c] = result{err: err}
				return
			}
			if len(br.Results) != 1 || br.Results[0].Error != "" {
				results[c] = result{err: fmt.Errorf("bad batch result: %s", body)}
				return
			}
			results[c] = result{got: br.Results[0].CPI, want: want}
		}(c)
	}
	close(start)
	wg.Wait()

	for c, r := range results {
		if r.err != nil {
			t.Fatalf("client %d: %v", c, r.err)
		}
		if math.Float64bits(r.got) != math.Float64bits(r.want) {
			t.Fatalf("client %d: batched prediction %v != direct PredictShard %v", c, r.got, r.want)
		}
	}
	if mean := s.batchMean(); mean <= 1 {
		t.Errorf("mean batch size %v, want > 1 (no coalescing happened)", mean)
	} else {
		t.Logf("mean batch size %.2f over %d predictions", mean, s.metrics.batchSize.count.Load())
	}
}

// TestConcurrentPredictsShareOneFlush: each model entry has one gather
// window, so two concurrent single predicts fill a MaxBatch-2 flush together
// and are answered at once instead of each waiting out the 30 s MaxWait. Both
// answers must be bit-identical to the snapshot, and the batch-size
// histogram must record exactly one flush of two items.
func TestConcurrentPredictsShareOneFlush(t *testing.T) {
	tr := newTestTrainer(t)
	s, ts := newTestServer(t, Config{
		Trainer:        tr,
		MaxBatch:       2,
		MaxWait:        30 * time.Second,
		RequestTimeout: time.Minute,
	})
	_, valid := testData(t)
	snap := tr.Snapshot()

	// A client that gives up after a second disconnects, which cancels the
	// server-side wait, so a failure does not sit out the gather window.
	client := &http.Client{Timeout: time.Second}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := range errs {
		v := valid[c]
		want, err := snap.PredictShard(v.X, v.HW)
		if err != nil {
			t.Fatal(err)
		}
		hw := v.HW
		data, err := json.Marshal(hsmodel.PredictRequest{X: v.X[:], Config: &hw})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := client.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[c] = err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var pr hsmodel.PredictResponse
			switch {
			case resp.StatusCode != http.StatusOK:
				errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
			case json.Unmarshal(body, &pr) != nil:
				errs[c] = fmt.Errorf("bad response: %s", body)
			case math.Float64bits(pr.CPI) != math.Float64bits(want):
				errs[c] = fmt.Errorf("prediction %v != snapshot prediction %v", pr.CPI, want)
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	// batchBuckets[1] is le="2": of the bounds, only a two-item flush lands there.
	h := s.metrics.batchSize
	if n, two := h.count.Load(), h.counts[1].Load(); n != 1 || two != 1 {
		t.Fatalf("recorded %d flushes, %d of them with 2 items; want one flush of 2", n, two)
	}
}

// TestGracefulShutdownDrains is the second acceptance clause: requests in
// flight when shutdown begins are all answered — none lost, none hung.
func TestGracefulShutdownDrains(t *testing.T) {
	tr := newTestTrainer(t)
	// A long gather window keeps the worker collecting while the queue fills,
	// so shutdown begins with requests genuinely queued and blocked.
	s, err := New(Config{Trainer: tr, MaxBatch: 8, MaxWait: 20 * time.Millisecond, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, valid := testData(t)

	const n = 200
	var (
		answered atomic.Int64 // real predictions
		rejected atomic.Int64 // clean ErrClosed rejections
		shed     atomic.Int64 // clean ErrOverloaded sheds (full queue)
		wg       sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := valid[i%len(valid)]
			cpi, err := s.Predict(context.Background(), v.X, v.HW)
			switch {
			case err == nil && cpi > 0:
				answered.Add(1)
			case errors.Is(err, ErrClosed):
				rejected.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("request %d: cpi=%v err=%v", i, cpi, err)
			}
		}(i)
	}
	// Begin shutdown only once requests are actually flowing through the
	// batcher (queued or already answered), then race the remaining
	// submissions against the drain. The gather worker consumes enqueued
	// jobs immediately, so an empty queue alone does not mean idle.
	for deadline := time.Now().Add(5 * time.Second); s.def.QueueDepth() == 0 && answered.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no request ever reached the batcher")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown left requests hanging")
	}
	if got := answered.Load() + rejected.Load() + shed.Load(); got != n {
		t.Fatalf("answered %d + rejected %d + shed %d != %d submitted",
			answered.Load(), rejected.Load(), shed.Load(), n)
	}
	if answered.Load() == 0 {
		t.Error("shutdown answered nothing — the drain path was not exercised")
	}
	t.Logf("answered %d, cleanly rejected %d, shed %d", answered.Load(), rejected.Load(), shed.Load())
	// After Close, new submissions are rejected, not lost.
	if _, err := s.Predict(context.Background(), valid[0].X, valid[0].HW); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close predict err = %v, want ErrClosed", err)
	}
}

// TestServeWhileTrainHTTP exercises the full add-while-train plus
// serve-while-train contract through the HTTP layer under -race: concurrent
// predicts, batch predicts, and sample feeds with async update triggers.
func TestServeWhileTrainHTTP(t *testing.T) {
	tr := newTestTrainer(t)
	_, ts := newTestServer(t, Config{Trainer: tr, MaxWait: time.Millisecond})
	_, valid := testData(t)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 16)

	// Predict hammers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				v := valid[(g+i)%len(valid)]
				hw := v.HW
				resp, body := postJSON(t, ts.URL+"/v1/predict", hsmodel.PredictRequest{X: v.X[:], Config: &hw})
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("predict status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	// Batch hammer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			var reqs []hsmodel.PredictRequest
			for k := 0; k < 4; k++ {
				v := valid[(i+k)%len(valid)]
				hw := v.HW
				reqs = append(reqs, hsmodel.PredictRequest{X: v.X[:], Config: &hw})
			}
			resp, body := postJSON(t, ts.URL+"/v1/predict:batch", hsmodel.BatchPredictRequest{Requests: reqs})
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("batch status %d: %s", resp.StatusCode, body)
				return
			}
		}
	}()
	// Sample feeder: absorb profiles and trigger async re-specification.
	updatesStarted := 0
	for round := 0; round < 3; round++ {
		var ws []hsmodel.SampleWire
		for k := 0; k < 4; k++ {
			ws = append(ws, hsmodel.SampleToWire(valid[(round*4+k)%len(valid)]))
		}
		resp, body := postJSON(t, ts.URL+"/v1/samples", hsmodel.SamplesRequest{Samples: ws, Update: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("samples status %d: %s", resp.StatusCode, body)
		}
		var sr hsmodel.SamplesResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Accepted != 4 {
			t.Fatalf("accepted %d, want 4", sr.Accepted)
		}
		if sr.UpdateStarted {
			updatesStarted++
		}
		// Direct trainer-level adds race the HTTP path on purpose.
		tr.AddSamples(valid[:2])
		time.Sleep(20 * time.Millisecond)
	}
	if updatesStarted == 0 {
		t.Error("no async update was ever started")
	}

	// Scrape metrics and model info concurrently with everything above.
	for _, path := range []string{"/metrics", "/v1/model", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The store grew: HTTP feeds plus direct adds.
	if n := tr.NumSamples(); n <= len(trainStore) {
		t.Errorf("sample store did not grow: %d", n)
	}
}

func TestModelInfoAndMetricsPage(t *testing.T) {
	tr := newTestTrainer(t)
	_, ts := newTestServer(t, Config{Trainer: tr})
	_, valid := testData(t)

	// A couple of requests so counters are non-zero.
	hw := valid[0].HW
	postJSON(t, ts.URL+"/v1/predict", hsmodel.PredictRequest{X: valid[0].X[:], Config: &hw})

	resp, body := getBody(t, ts.URL+"/v1/model")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model status %d", resp.StatusCode)
	}
	var info hsmodel.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Trained || info.Rung != "genetic" || info.Spec == "" || info.Terms == 0 {
		t.Errorf("model info incomplete: %+v", info)
	}
	if info.TrainedRows != len(trainStore) || info.TotalSamples != len(trainStore) {
		t.Errorf("rows %d / samples %d, want %d", info.TrainedRows, info.TotalSamples, len(trainStore))
	}
	if info.SnapshotVersion == 0 {
		t.Error("snapshot version not tracked")
	}

	mresp, mbody := getBody(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}
	page := string(mbody)
	for _, want := range []string{
		`hsserve_requests_total{endpoint="predict",code="200"}`,
		"hsserve_request_duration_seconds_bucket",
		"hsserve_batch_size_bucket",
		"hsserve_snapshot_version 1",
		"hsserve_snapshot_age_seconds",
		"hsserve_model_trained 1",
		`hsserve_updates_total{result="started"} 0`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// metricUint returns the integer value printed for series (metric name plus
// labels, exactly as exposed) on a metrics page, or false when no line
// carries it.
func metricUint(page, series string) (uint64, bool) {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// TestSnapshotVersionCountsPublishes: the served version counts publications
// by the default entry's trainer, not changes some scrape happened to see.
// The server boots untrained and two training runs land with no scrape in
// between: that is version 2 on /v1/model and on both metrics series.
func TestSnapshotVersionCountsPublishes(t *testing.T) {
	train, _ := testData(t)
	tr := core.NewTrainer(append([]core.Sample(nil), train...))
	tr.ShardLen = 20_000
	tr.Search = genetic.Params{PopulationSize: 10, Generations: 2, Seed: 3}
	_, ts := newTestServer(t, Config{Trainer: tr})
	for i := 0; i < 2; i++ {
		if err := tr.Train(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	if v := modelInfo(t, ts.URL).SnapshotVersion; v != 2 {
		t.Errorf("/v1/model snapshot_version %d, want 2", v)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	for _, series := range []string{
		"hsserve_snapshot_version",
		`hsserve_registry_model_snapshot_version{model="default"}`,
	} {
		if v, ok := metricUint(string(body), series); !ok || v != 2 {
			t.Errorf("%s = %v (present %v), want 2", series, v, ok)
		}
	}
}

// TestWireConfigValidated: a full wire config is checked at the trust
// boundary. A predict with a zero D-cache answers 400 on both route families,
// and a samples POST carrying one sample with a negative width answers 400
// on both samples routes without any of its samples reaching the store.
func TestWireConfigValidated(t *testing.T) {
	tr := newTestTrainer(t)
	_, ts := newTestServer(t, Config{Trainer: tr})
	_, valid := testData(t)

	hw := valid[0].HW
	hw.DCacheKB = 0
	for _, route := range []string{"/v1/predict", "/v2/models/default/predict"} {
		resp, body := postJSON(t, ts.URL+route, hsmodel.PredictRequest{X: valid[0].X[:], Config: &hw})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "DCacheKB") {
			t.Errorf("%s with DCacheKB 0: status %d: %s, want 400 naming the field", route, resp.StatusCode, body)
		}
	}

	before := tr.NumSamples()
	bad := hsmodel.SampleToWire(valid[1])
	bad.Config.Width = -1
	req := hsmodel.SamplesRequest{Samples: []hsmodel.SampleWire{hsmodel.SampleToWire(valid[0]), bad}}
	for _, route := range []string{"/v1/samples", "/v2/models/default/samples"} {
		resp, body := postJSON(t, ts.URL+route, req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "Width") {
			t.Errorf("%s with width -1: status %d: %s, want 400 naming the field", route, resp.StatusCode, body)
		}
	}
	if n := tr.NumSamples(); n != before {
		t.Errorf("rejected samples POSTs changed the store: %d -> %d rows", before, n)
	}
}

func TestHotReload(t *testing.T) {
	tr := newTestTrainer(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := tr.Snapshot().Save(path); err != nil {
		t.Fatal(err)
	}

	// A second trainer starts untrained and serves only after Reload.
	serving := core.NewTrainer(nil)
	s, ts := newTestServer(t, Config{Trainer: serving, ModelPath: path})
	_, valid := testData(t)

	resp, _ := postJSON(t, ts.URL+"/v1/predict", hsmodel.PredictRequest{X: valid[0].X[:]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-reload status %d, want 503", resp.StatusCode)
	}
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", hsmodel.PredictRequest{X: valid[0].X[:]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload status %d: %s", resp.StatusCode, body)
	}

	// A corrupt file is rejected with the typed persistence error and the
	// served snapshot stays.
	before := serving.Snapshot()
	if err := corruptFile(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil {
		t.Fatal("reload of corrupt file succeeded")
	}
	if serving.Snapshot() != before {
		t.Error("failed reload replaced the served snapshot")
	}
}

func getBody(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func corruptFile(path string) error {
	return os.WriteFile(path, []byte(`{"version":3,"model":`), 0o644)
}
