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
	"hsmodel/internal/family"
	"hsmodel/internal/genetic"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/profile"
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
		resp, body := postJSON(t, ts.URL+"/v2/models/default/predict", hsmodel.PredictRequest{
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
	resp, body := postJSON(t, ts.URL+"/v2/models/default/predict:batch", batchReq)
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
	resp, body := postJSON(t, ts.URL+"/v2/models/default/predict", hsmodel.PredictRequest{Shards: shards, Arch: arch})
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
		resp, body := postJSON(t, ts.URL+"/v2/models/default/predict", tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, body)
		}
		var er hsmodel.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not an ErrorResponse: %s", tc.name, body)
		}
	}
}

// nanModel is a family.Model that answers NaN for every row.
type nanModel struct{}

func (nanModel) PredictBatch(rows [][]float64, out []float64) {
	for i := range rows {
		out[i] = math.NaN()
	}
}
func (nanModel) Describe() family.Description {
	return family.Description{Family: "nan", Spec: "nan"}
}
func (nanModel) Payload() (json.RawMessage, error) { return json.RawMessage("null"), nil }

// nanFamily fits nanModel whatever the rows.
type nanFamily struct{}

func (nanFamily) Name() string { return "nan" }
func (nanFamily) Fit(ctx context.Context, in family.FitInput) (family.FitOutput, error) {
	return family.FitOutput{Model: nanModel{}}, ctx.Err()
}
func (nanFamily) Load(json.RawMessage, int) (family.Model, error) { return nanModel{}, nil }

// TestNonFinitePredictionIsServerError: a model that answers NaN gets a 5xx
// ErrorResponse on the single predict route, and an Error on each batch item
// (single-shard and whole-application), never a 200 with an empty body.
func TestNonFinitePredictionIsServerError(t *testing.T) {
	train, valid := testData(t)
	tr := core.NewTrainer(append([]core.Sample(nil), train...))
	tr.Families = []family.Family{nanFamily{}}
	if err := tr.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Trainer: tr})
	x := valid[0].X[:]

	resp, body := postJSON(t, ts.URL+"/v2/models/default/predict", hsmodel.PredictRequest{X: x})
	if resp.StatusCode < 500 {
		t.Errorf("predict status %d, want 5xx (%q)", resp.StatusCode, body)
	}
	var er hsmodel.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("predict body not an ErrorResponse: %q", body)
	}

	resp, body = postJSON(t, ts.URL+"/v2/models/default/predict:batch", hsmodel.BatchPredictRequest{
		Requests: []hsmodel.PredictRequest{{X: x}, {Shards: [][]float64{x, x}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d (%q)", resp.StatusCode, body)
	}
	var br hsmodel.BatchPredictResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("batch body %q: %v", body, err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("batch answered %d items, want 2", len(br.Results))
	}
	for i, item := range br.Results {
		if item.Error == "" {
			t.Errorf("batch item %d = %+v, want an error", i, item)
		}
	}
}

// TestResidualExtremeInputAnswersInsideEnvelope: a residual-family model
// asked about a characteristic of 1e308 answers 200 with a CPI inside the
// 1.5x envelope of its training CPIs, not the prior's overflow.
func TestResidualExtremeInputAnswersInsideEnvelope(t *testing.T) {
	train, valid := testData(t)
	tr := core.NewTrainer(append([]core.Sample(nil), train...))
	tr.Search = genetic.Params{PopulationSize: 10, Generations: 2, Seed: 3}
	tr.Families = []family.Family{core.FamilyByName("residual")}
	if err := tr.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Trainer: tr})
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range train {
		lo, hi = math.Min(lo, s.CPI), math.Max(hi, s.CPI)
	}

	x := valid[0].X
	x[1] = 1e308
	resp, body := postJSON(t, ts.URL+"/v2/models/default/predict", hsmodel.PredictRequest{X: x[:]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%q), want 200", resp.StatusCode, body)
	}
	var pr hsmodel.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !(pr.CPI >= lo/1.5 && pr.CPI <= hi*1.5) {
		t.Errorf("CPI %v, want inside [%v, %v]", pr.CPI, lo/1.5, hi*1.5)
	}
}

// TestOversizedBodyIs413: a body past maxBodyBytes is refused with 413 and
// the shared error body before any of it reaches a store.
func TestOversizedBodyIs413(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, valid := testData(t)
	one, err := json.Marshal(hsmodel.SampleToWire(valid[0]))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.WriteString(`{"samples":[`)
	body.Write(one)
	for body.Len() <= maxBodyBytes {
		body.WriteByte(',')
		body.Write(one)
	}
	body.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/v2/models/default/samples", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized samples POST: status %d, want 413: %.200s", resp.StatusCode, out)
	}
	var er hsmodel.ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil || er.Error == "" {
		t.Fatalf("413 body not an ErrorResponse: %s", out)
	}
	if got := s.def.trainer.NumSamples(); got != len(trainStore) {
		t.Fatalf("oversized POST moved the store to %d samples, want %d", got, len(trainStore))
	}
}

// TestTrailingDataIs400: a body must hold exactly one JSON value; trailing
// whitespace is not data.
func TestTrailingDataIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, valid := testData(t)
	x, err := json.Marshal(valid[0].X[:])
	if err != nil {
		t.Fatal(err)
	}
	for trailer, want := range map[string]int{
		` {"garbage":true} trailing`: http.StatusBadRequest,
		` {}`:                        http.StatusBadRequest,
		` trailing`:                  http.StatusBadRequest,
		"\n \t\n":                    http.StatusOK,
	} {
		resp, err := http.Post(ts.URL+"/v2/models/default/predict", "application/json",
			strings.NewReader(`{"x":`+string(x)+`}`+trailer))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("predict with trailer %q: status %d, want %d: %s", trailer, resp.StatusCode, want, out)
		}
	}
}

// TestUntrainedSnapshotAgeIsZero: before the first publication there is no
// publish time, so the model route and the scrape report a snapshot age of
// 0, not the age of the zero time.
func TestUntrainedSnapshotAgeIsZero(t *testing.T) {
	_, ts := newTestServer(t, Config{Trainer: core.NewTrainer(nil)})
	if info := modelInfo(t, ts.URL); info.Trained || info.SnapshotAgeSec != 0 {
		t.Errorf("untrained model info: trained %v, snapshot_age_sec %v, want false, 0", info.Trained, info.SnapshotAgeSec)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	series := `hsserve_registry_model_snapshot_age_seconds{model="default"}`
	if v, ok := metricUint(string(body), series); !ok || v != 0 {
		t.Errorf("%s = %v (parsed %v), want 0", series, v, ok)
	}
}

func TestUntrainedServes503(t *testing.T) {
	tr := core.NewTrainer(nil)
	_, ts := newTestServer(t, Config{Trainer: tr})
	_, valid := testData(t)
	resp, body := postJSON(t, ts.URL+"/v2/models/default/predict", hsmodel.PredictRequest{X: valid[0].X[:]})
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
	_, ts := newTestServer(t, Config{
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
			resp, err := client.Post(ts.URL+"/v2/models/default/predict:batch", "application/json", bytes.NewReader(data))
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
	// The mean comes from the series the benchmark harness reads, which
	// reads a missing key as 0: a rename would silently zero its figures.
	_, page := getBody(t, ts.URL+"/metrics")
	sum, okSum := metricFloat(string(page), "hsserve_batch_size_sum")
	count, okCount := metricFloat(string(page), "hsserve_batch_size_count")
	if !okSum || !okCount || count == 0 {
		t.Fatalf("metrics page has no batch sizes (sum %v, count %v):\n%s", okSum, okCount, page)
	}
	if mean := sum / count; mean <= 1 {
		t.Errorf("mean batch size %v, want > 1 (no coalescing happened)", mean)
	} else {
		t.Logf("mean batch size %.2f over %v passes", mean, count)
	}
	if _, ok := metricFloat(string(page), "hsserve_sheds_total"); !ok {
		t.Error("metrics page has no hsserve_sheds_total")
	}
}

// TestSinglePredictNeverWaitsOutMaxWait: a single predict answers on its
// own request, so with a 30 s MaxWait and a MaxBatch no single predict can
// fill, two predicts in a row each answer within a client's one-second
// timeout. Both answers are bit-identical to the snapshot, and the batcher
// records no flush.
func TestSinglePredictNeverWaitsOutMaxWait(t *testing.T) {
	tr := newTestTrainer(t)
	s, ts := newTestServer(t, Config{
		Trainer:        tr,
		MaxBatch:       32,
		MaxWait:        30 * time.Second,
		RequestTimeout: time.Minute,
	})
	_, valid := testData(t)
	snap := tr.Snapshot()

	// A client that gives up after a second disconnects, which cancels a
	// server-side wait, so a failure does not sit out the gather window.
	client := &http.Client{Timeout: time.Second}
	for c, v := range valid[:2] {
		want, err := snap.PredictShard(v.X, v.HW)
		if err != nil {
			t.Fatal(err)
		}
		hw := v.HW
		data, err := json.Marshal(hsmodel.PredictRequest{X: v.X[:], Config: &hw})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/v2/models/default/predict", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("predict %d: %v", c, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var pr hsmodel.PredictResponse
		switch {
		case resp.StatusCode != http.StatusOK:
			t.Fatalf("predict %d: status %d: %s", c, resp.StatusCode, body)
		case json.Unmarshal(body, &pr) != nil:
			t.Fatalf("predict %d: bad response: %s", c, body)
		case math.Float64bits(pr.CPI) != math.Float64bits(want):
			t.Fatalf("predict %d: prediction %v != snapshot prediction %v", c, pr.CPI, want)
		}
	}
	if n := s.metrics.batchSize.count.Load(); n != 0 {
		t.Fatalf("single predicts recorded %d batcher flushes, want 0", n)
	}
}

// TestConcurrentPredictsShareOneFlush: each model entry has one gather
// window, so two concurrent one-item predict:batch requests fill a MaxBatch-2
// flush together and are answered at once instead of each waiting out the
// 30 s MaxWait. Both answers must be bit-identical to the snapshot, and the
// batch-size histogram must record exactly one flush of two items.
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
		data, err := json.Marshal(hsmodel.BatchPredictRequest{
			Requests: []hsmodel.PredictRequest{{X: v.X[:], Config: &hw}},
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := client.Post(ts.URL+"/v2/models/default/predict:batch", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[c] = err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var br hsmodel.BatchPredictResponse
			switch {
			case resp.StatusCode != http.StatusOK:
				errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
			case json.Unmarshal(body, &br) != nil || len(br.Results) != 1 || br.Results[0].Error != "":
				errs[c] = fmt.Errorf("bad response: %s", body)
			case math.Float64bits(br.Results[0].CPI) != math.Float64bits(want):
				errs[c] = fmt.Errorf("prediction %v != snapshot prediction %v", br.Results[0].CPI, want)
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

// TestGracefulShutdownDrains is the second acceptance clause: batcher jobs
// in flight when shutdown begins are all answered — none lost, none hung.
// Each request is a one-item PredictMany job, the unit a predict:batch
// request submits.
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
			out := make([]float64, 1)
			err := s.PredictMany(context.Background(), []profile.Characteristics{v.X}, []hwspace.Config{v.HW}, out)
			cpi := out[0]
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
	for deadline := time.Now().Add(5 * time.Second); s.def.batcher.Queued() == 0 && answered.Load() == 0; {
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
	// After Close, new submissions are rejected, not lost, and a direct
	// single predict is refused the same way.
	out := make([]float64, 1)
	if err := s.PredictMany(context.Background(), []profile.Characteristics{valid[0].X}, []hwspace.Config{valid[0].HW}, out); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close batch err = %v, want ErrClosed", err)
	}
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
				resp, body := postJSON(t, ts.URL+"/v2/models/default/predict", hsmodel.PredictRequest{X: v.X[:], Config: &hw})
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
			resp, body := postJSON(t, ts.URL+"/v2/models/default/predict:batch", hsmodel.BatchPredictRequest{Requests: reqs})
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
		resp, body := postJSON(t, ts.URL+"/v2/models/default/samples", hsmodel.SamplesRequest{Samples: ws, Update: true})
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
		if err := tr.AddSamples(valid[:2]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if updatesStarted == 0 {
		t.Error("no async update was ever started")
	}

	// Scrape metrics and model info concurrently with everything above.
	for _, path := range []string{"/metrics", "/v2/models/default/model", "/healthz"} {
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
	postJSON(t, ts.URL+"/v2/models/default/predict", hsmodel.PredictRequest{X: valid[0].X[:], Config: &hw})

	resp, body := getBody(t, ts.URL+"/v2/models/default/model")
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
		`hsserve_requests_total{model="default",endpoint="v2_predict",code="200"}`,
		"hsserve_request_duration_seconds_bucket",
		"hsserve_batch_size_bucket",
		`hsserve_registry_model_snapshot_version{model="default"} 1`,
		`hsserve_registry_model_snapshot_age_seconds{model="default"}`,
		`hsserve_registry_model_trained{model="default"} 1`,
		`hsserve_updates_total{result="started"} 0`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestRequestSeriesCap: at the cap a new (model, endpoint, code)
// combination of hsserve_requests_total is dropped and counted in
// hsserve_metrics_series_dropped_total, while the series already on the
// page keep counting.
func TestRequestSeriesCap(t *testing.T) {
	m := newMetrics()
	for i := 0; i < maxRequestSeries; i++ {
		m.observeRequest(fmt.Sprintf("m%d", i), "v2_model", http.StatusOK, 0.001)
	}
	m.observeRequest("m0", "v2_model", http.StatusOK, 0.001)
	m.observeRequest("m0", "v2_model", http.StatusNotFound, 0.001)
	m.observeRequest("", "healthz", http.StatusOK, 0.001)

	var b strings.Builder
	m.writeTo(&b, nil)
	page := b.String()
	if n := strings.Count(page, "\nhsserve_requests_total{"); n != maxRequestSeries {
		t.Errorf("%d hsserve_requests_total series, want the cap %d", n, maxRequestSeries)
	}
	for series, want := range map[string]uint64{
		`hsserve_requests_total{model="m0",endpoint="v2_model",code="200"}`:                                   2,
		fmt.Sprintf(`hsserve_requests_total{model="m%d",endpoint="v2_model",code="200"}`, maxRequestSeries-1): 1,
		"hsserve_metrics_series_dropped_total":                                                                2,
	} {
		if v, ok := metricUint(page, series); !ok || v != want {
			t.Errorf("%s = %v (present %v), want %d", series, v, ok, want)
		}
	}
	for _, dropped := range []string{`code="404"`, `hsserve_requests_total{endpoint="healthz"`} {
		if strings.Contains(page, dropped) {
			t.Errorf("metrics page carries a series past the cap (%s)", dropped)
		}
	}
}

// metricText returns the value text printed for series (metric name plus
// labels, exactly as exposed) on a metrics page, or false when no line
// carries it.
func metricText(page, series string) (string, bool) {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v, true
		}
	}
	return "", false
}

// metricUint returns series' value on a metrics page as an integer.
func metricUint(page, series string) (uint64, bool) {
	v, ok := metricText(page, series)
	n, err := strconv.ParseUint(v, 10, 64)
	return n, ok && err == nil
}

// metricFloat returns series' value on a metrics page.
func metricFloat(page, series string) (float64, bool) {
	v, ok := metricText(page, series)
	f, err := strconv.ParseFloat(v, 64)
	return f, ok && err == nil
}

// TestSnapshotVersionCountsPublishes: the served version counts publications
// by the default entry's trainer, not changes some scrape happened to see.
// The server boots untrained and two training runs land with no scrape in
// between: that is version 2 on the model route and on the scrape.
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
		t.Errorf("model snapshot_version %d, want 2", v)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	series := `hsserve_registry_model_snapshot_version{model="default"}`
	if v, ok := metricUint(string(body), series); !ok || v != 2 {
		t.Errorf("%s = %v (present %v), want 2", series, v, ok)
	}
}

// TestWireConfigValidated: a full wire config is checked at the trust
// boundary. A predict with a zero D-cache answers 400, and a samples POST
// carrying one sample with a negative width answers 400 without any of its
// samples reaching the store, whether it feeds one entry or fans out.
func TestWireConfigValidated(t *testing.T) {
	tr := newTestTrainer(t)
	_, ts := newTestServer(t, Config{Trainer: tr})
	_, valid := testData(t)

	hw := valid[0].HW
	hw.DCacheKB = 0
	resp, body := postJSON(t, ts.URL+"/v2/models/default/predict", hsmodel.PredictRequest{X: valid[0].X[:], Config: &hw})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "DCacheKB") {
		t.Errorf("predict with DCacheKB 0: status %d: %s, want 400 naming the field", resp.StatusCode, body)
	}

	before := tr.NumSamples()
	bad := hsmodel.SampleToWire(valid[1])
	bad.Config.Width = -1
	for _, fanOut := range []bool{false, true} {
		req := hsmodel.SamplesRequest{Samples: []hsmodel.SampleWire{hsmodel.SampleToWire(valid[0]), bad}, FanOut: fanOut}
		resp, body := postJSON(t, ts.URL+"/v2/models/default/samples", req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "Width") {
			t.Errorf("samples (fan_out %v) with width -1: status %d: %s, want 400 naming the field", fanOut, resp.StatusCode, body)
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

	resp, _ := postJSON(t, ts.URL+"/v2/models/default/predict", hsmodel.PredictRequest{X: valid[0].X[:]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-reload status %d, want 503", resp.StatusCode)
	}
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v2/models/default/predict", hsmodel.PredictRequest{X: valid[0].X[:]})
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
