// Metrics: request counters, latency histograms, the batch-size
// distribution, and snapshot lifecycle gauges, exposed in Prometheus text
// exposition format on GET /metrics — standard library only. The fixed
// bucket layouts keep observation lock-free (atomic bucket counters plus a
// CAS-accumulated sum); only the requests-per-(endpoint, code) map takes a
// mutex, and only for a map increment.
package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hsmodel/internal/lifecycle"
)

// latencyBuckets are the histogram upper bounds in seconds, 100µs to 10s.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// batchBuckets bound the coalesced-batch-size distribution.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// histogram is a fixed-bucket Prometheus-style histogram safe for
// concurrent observation.
type histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	// First bound >= v; equality lands in that bucket (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

func (h *histogram) mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return math.Float64frombits(h.sum.Load()) / float64(n)
}

// write emits the _bucket/_sum/_count series. labels is either empty or a
// rendered `name="value"` list without braces.
func (h *histogram) write(w io.Writer, name, labels string) {
	sep := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, sep(`le="`+formatBound(b)+`"`), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, sep(`le="+Inf"`), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sep(""), math.Float64frombits(h.sum.Load()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, sep(""), h.count.Load())
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// endpoints served, in stable exposition order: the probes, then the
// model-addressed v2 family.
var endpointNames = []string{
	"healthz", "metrics",
	"v2_models", "v2_register", "v2_unregister",
	"v2_predict", "v2_predict_batch", "v2_samples", "v2_model", "v2_lifecycle",
}

// reqKey labels one requests_total series.
type reqKey struct {
	endpoint string
	code     int
}

// modelReqKey labels one model_requests_total series: the same counter as
// requests_total, additionally split by the registry entry that served it.
type modelReqKey struct {
	model    string
	endpoint string
	code     int
}

// Cardinality caps for the labeled counter maps. Endpoints are a fixed set
// but status codes and (for model_requests_total) model ids arrive from
// traffic, so without a cap a label-spraying client grows the maps — and the
// scrape page — without bound. At the cap, new label combinations are
// dropped (existing series keep counting) and the drop is itself counted.
const (
	maxRequestSeries      = 256
	maxModelRequestSeries = 4096
)

// metrics aggregates everything GET /metrics exposes.
type metrics struct {
	mu            sync.Mutex
	requests      map[reqKey]uint64
	modelRequests map[modelReqKey]uint64
	droppedSeries uint64 // new label combinations rejected at the cap

	latency   map[string]*histogram // per endpoint
	batchSize *histogram

	samplesAccepted atomic.Uint64
	updatesStarted  atomic.Uint64
	updatesOK       atomic.Uint64
	updatesFailed   atomic.Uint64
	reloads         atomic.Uint64
	reloadErrors    atomic.Uint64
	shedsTotal      atomic.Uint64 // predictions rejected on a full batcher queue
}

func newMetrics() *metrics {
	m := &metrics{
		requests:      make(map[reqKey]uint64),
		modelRequests: make(map[modelReqKey]uint64),
		latency:       make(map[string]*histogram, len(endpointNames)),
		batchSize:     newHistogram(batchBuckets),
	}
	for _, e := range endpointNames {
		m.latency[e] = newHistogram(latencyBuckets)
	}
	return m
}

// observeRequest records one completed request.
func (m *metrics) observeRequest(endpoint string, code int, seconds float64) {
	k := reqKey{endpoint, code}
	m.mu.Lock()
	if _, ok := m.requests[k]; ok || len(m.requests) < maxRequestSeries {
		m.requests[k]++
	} else {
		m.droppedSeries++
	}
	m.mu.Unlock()
	if h, ok := m.latency[endpoint]; ok {
		h.observe(seconds)
	}
}

// observeModelRequest records one completed model-addressed request.
func (m *metrics) observeModelRequest(model, endpoint string, code int) {
	k := modelReqKey{model, endpoint, code}
	m.mu.Lock()
	if _, ok := m.modelRequests[k]; ok || len(m.modelRequests) < maxModelRequestSeries {
		m.modelRequests[k]++
	} else {
		m.droppedSeries++
	}
	m.mu.Unlock()
}

// observeBatch records the size of one coalesced evaluator pass.
func (m *metrics) observeBatch(n int) { m.batchSize.observe(float64(n)) }

// snapshotState is what the scrape reports about the served model, read
// from the default trainer's publication record.
type snapshotState struct {
	version uint64
	age     time.Duration
	trained bool
	family  string // served model family name; "" before training
}

// modelLifecycle is one entry's control-loop status at scrape time; only
// entries with a loop have one.
type modelLifecycle struct {
	id string
	st lifecycle.Status
}

// modelScrape is one registry entry's scrape-time state.
type modelScrape struct {
	id          string
	trained     bool
	version     uint64
	samples     int
	trainedRows int
	queued      int
}

// registryScrape carries the registry's scrape-time state; nil omits the
// per-model section (unit tests driving writeTo directly).
type registryScrape struct {
	depth  int
	models []modelScrape
}

// writeTo renders the full exposition page. Lock coverage on the read path:
// the requests map is copied under mu before rendering; every histogram and
// counter read is an atomic load (a bucket/sum/count triple may be mutually
// torn mid-observation, which skews one scrape by at most one in-flight
// event and never corrupts monotonicity); the latency map itself is written
// only in newMetrics. TestMetricsScrapeDuringPredictLoad holds this under
// -race. The hsserve_lifecycle_* section has one series per entry in lcs,
// labeled by model id, and is omitted when lcs is empty.
func (m *metrics) writeTo(w io.Writer, snap snapshotState, lcs []modelLifecycle, reg *registryScrape) {
	io.WriteString(w, "# HELP hsserve_requests_total HTTP requests served, by endpoint and status code.\n")
	io.WriteString(w, "# TYPE hsserve_requests_total counter\n")
	m.mu.Lock()
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	counts := make(map[reqKey]uint64, len(keys))
	for k, v := range m.requests {
		counts[k] = v
	}
	m.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "hsserve_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, counts[k])
	}

	io.WriteString(w, "# HELP hsserve_request_duration_seconds Request latency by endpoint.\n")
	io.WriteString(w, "# TYPE hsserve_request_duration_seconds histogram\n")
	for _, e := range endpointNames {
		if m.latency[e].count.Load() == 0 {
			continue
		}
		m.latency[e].write(w, "hsserve_request_duration_seconds", "endpoint=\""+e+"\"")
	}

	io.WriteString(w, "# HELP hsserve_batch_size Predictions coalesced per evaluator pass.\n")
	io.WriteString(w, "# TYPE hsserve_batch_size histogram\n")
	m.batchSize.write(w, "hsserve_batch_size", "")

	io.WriteString(w, "# HELP hsserve_snapshot_version Model publications by the default entry's trainer (0 before the first).\n")
	io.WriteString(w, "# TYPE hsserve_snapshot_version gauge\n")
	fmt.Fprintf(w, "hsserve_snapshot_version %d\n", snap.version)
	io.WriteString(w, "# HELP hsserve_snapshot_age_seconds Seconds since the served snapshot was published (0 before the first publication).\n")
	io.WriteString(w, "# TYPE hsserve_snapshot_age_seconds gauge\n")
	fmt.Fprintf(w, "hsserve_snapshot_age_seconds %g\n", snap.age.Seconds())
	io.WriteString(w, "# HELP hsserve_model_trained Whether a model is being served (1) or not (0).\n")
	io.WriteString(w, "# TYPE hsserve_model_trained gauge\n")
	trained := 0
	if snap.trained {
		trained = 1
	}
	fmt.Fprintf(w, "hsserve_model_trained %d\n", trained)
	if snap.family != "" {
		io.WriteString(w, "# HELP hsserve_model_family Which model family the served snapshot came from (1 on the served family's label).\n")
		io.WriteString(w, "# TYPE hsserve_model_family gauge\n")
		fmt.Fprintf(w, "hsserve_model_family{family=%q} 1\n", snap.family)
	}

	io.WriteString(w, "# HELP hsserve_samples_accepted_total Profiles absorbed via POST /v2/models/{id}/samples.\n")
	io.WriteString(w, "# TYPE hsserve_samples_accepted_total counter\n")
	fmt.Fprintf(w, "hsserve_samples_accepted_total %d\n", m.samplesAccepted.Load())
	io.WriteString(w, "# HELP hsserve_updates_total Asynchronous model re-specifications, by result.\n")
	io.WriteString(w, "# TYPE hsserve_updates_total counter\n")
	fmt.Fprintf(w, "hsserve_updates_total{result=\"started\"} %d\n", m.updatesStarted.Load())
	fmt.Fprintf(w, "hsserve_updates_total{result=\"ok\"} %d\n", m.updatesOK.Load())
	fmt.Fprintf(w, "hsserve_updates_total{result=\"failed\"} %d\n", m.updatesFailed.Load())
	io.WriteString(w, "# HELP hsserve_snapshot_reloads_total Hot snapshot reloads (SIGHUP), by result.\n")
	io.WriteString(w, "# TYPE hsserve_snapshot_reloads_total counter\n")
	fmt.Fprintf(w, "hsserve_snapshot_reloads_total{result=\"ok\"} %d\n", m.reloads.Load())
	fmt.Fprintf(w, "hsserve_snapshot_reloads_total{result=\"failed\"} %d\n", m.reloadErrors.Load())

	io.WriteString(w, "# HELP hsserve_sheds_total Predictions rejected because the queue was full (HTTP 429).\n")
	io.WriteString(w, "# TYPE hsserve_sheds_total counter\n")
	fmt.Fprintf(w, "hsserve_sheds_total %d\n", m.shedsTotal.Load())

	m.mu.Lock()
	dropped := m.droppedSeries
	m.mu.Unlock()
	io.WriteString(w, "# HELP hsserve_metrics_series_dropped_total Label combinations rejected at the counter cardinality cap.\n")
	io.WriteString(w, "# TYPE hsserve_metrics_series_dropped_total counter\n")
	fmt.Fprintf(w, "hsserve_metrics_series_dropped_total %d\n", dropped)

	if reg != nil {
		m.writeRegistry(w, reg)
	}

	if len(lcs) > 0 {
		writeLifecycle(w, lcs)
	}
}

// writeLifecycle renders every control loop's gauges and counters, one
// series per entry labeled model="<id>".
func writeLifecycle(w io.Writer, lcs []modelLifecycle) {
	io.WriteString(w, "# HELP hsserve_lifecycle_state Control-loop state (one-hot over the state machine), by model.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_state gauge\n")
	for _, lc := range lcs {
		for _, st := range []string{"stable", "drift-suspected", "gathering", "retraining", "canary", "cooldown"} {
			v := 0
			if lc.st.State == st {
				v = 1
			}
			fmt.Fprintf(w, "hsserve_lifecycle_state{model=%q,state=%q} %d\n", lc.id, st, v)
		}
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_drift_score CUSUM drift score of the streaming error detector, by model.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_drift_score gauge\n")
	for _, lc := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_drift_score{model=%q} %g\n", lc.id, lc.st.DriftScore)
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_err_ewma Smoothed |relative error| of the served model on the live stream, by model.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_err_ewma gauge\n")
	for _, lc := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_err_ewma{model=%q} %g\n", lc.id, lc.st.ErrEWMA)
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_store_occupancy Bounded sample-store occupancy, by model and store.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_store_occupancy gauge\n")
	for _, lc := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_store_occupancy{model=%q,store=\"reservoir\"} %d\n", lc.id, lc.st.ReservoirLen)
		fmt.Fprintf(w, "hsserve_lifecycle_store_occupancy{model=%q,store=\"ring\"} %d\n", lc.id, lc.st.RingLen)
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_store_capacity Bounded sample-store capacity, by model and store.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_store_capacity gauge\n")
	for _, lc := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_store_capacity{model=%q,store=\"reservoir\"} %d\n", lc.id, lc.st.ReservoirCap)
		fmt.Fprintf(w, "hsserve_lifecycle_store_capacity{model=%q,store=\"ring\"} %d\n", lc.id, lc.st.RingCap)
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_episodes_total Control-loop episode outcomes, by model and kind.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_episodes_total counter\n")
	for _, lc := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_episodes_total{model=%q,kind=\"retrain\"} %d\n", lc.id, lc.st.Retrains)
		fmt.Fprintf(w, "hsserve_lifecycle_episodes_total{model=%q,kind=\"promotion\"} %d\n", lc.id, lc.st.Promotions)
		fmt.Fprintf(w, "hsserve_lifecycle_episodes_total{model=%q,kind=\"rollback\"} %d\n", lc.id, lc.st.Rollbacks)
		fmt.Fprintf(w, "hsserve_lifecycle_episodes_total{model=%q,kind=\"ladder_failure\"} %d\n", lc.id, lc.st.LadderFailures)
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_canary_err Canary MedAPE of the last candidate vs the incumbent on the same set, by model and role.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_canary_err gauge\n")
	for _, lc := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_canary_err{model=%q,role=\"candidate\"} %g\n", lc.id, lc.st.CanaryErr)
		fmt.Fprintf(w, "hsserve_lifecycle_canary_err{model=%q,role=\"incumbent\"} %g\n", lc.id, lc.st.IncumbentErr)
	}
}

// writeRegistry renders the multi-model section: registry-wide load state
// plus one series per entry per gauge, labeled by model id.
func (m *metrics) writeRegistry(w io.Writer, reg *registryScrape) {
	io.WriteString(w, "# HELP hsserve_registry_models Registered model entries.\n")
	io.WriteString(w, "# TYPE hsserve_registry_models gauge\n")
	fmt.Fprintf(w, "hsserve_registry_models %d\n", len(reg.models))
	io.WriteString(w, "# HELP hsserve_registry_queue_depth Aggregate queued predictions across every entry's batcher.\n")
	io.WriteString(w, "# TYPE hsserve_registry_queue_depth gauge\n")
	fmt.Fprintf(w, "hsserve_registry_queue_depth %d\n", reg.depth)

	io.WriteString(w, "# HELP hsserve_registry_model_trained Whether the entry serves a model (1) or not (0), by model.\n")
	io.WriteString(w, "# TYPE hsserve_registry_model_trained gauge\n")
	for _, e := range reg.models {
		v := 0
		if e.trained {
			v = 1
		}
		fmt.Fprintf(w, "hsserve_registry_model_trained{model=%q} %d\n", e.id, v)
	}
	io.WriteString(w, "# HELP hsserve_registry_model_snapshot_version Model publications by the entry's trainer, by model.\n")
	io.WriteString(w, "# TYPE hsserve_registry_model_snapshot_version gauge\n")
	for _, e := range reg.models {
		fmt.Fprintf(w, "hsserve_registry_model_snapshot_version{model=%q} %d\n", e.id, e.version)
	}
	io.WriteString(w, "# HELP hsserve_registry_model_samples Profile-store size, by model.\n")
	io.WriteString(w, "# TYPE hsserve_registry_model_samples gauge\n")
	for _, e := range reg.models {
		fmt.Fprintf(w, "hsserve_registry_model_samples{model=%q} %d\n", e.id, e.samples)
	}
	io.WriteString(w, "# HELP hsserve_registry_model_trained_rows Rows the served snapshot was trained on, by model.\n")
	io.WriteString(w, "# TYPE hsserve_registry_model_trained_rows gauge\n")
	for _, e := range reg.models {
		fmt.Fprintf(w, "hsserve_registry_model_trained_rows{model=%q} %d\n", e.id, e.trainedRows)
	}
	io.WriteString(w, "# HELP hsserve_registry_model_queue_depth Queued predictions, by model.\n")
	io.WriteString(w, "# TYPE hsserve_registry_model_queue_depth gauge\n")
	for _, e := range reg.models {
		fmt.Fprintf(w, "hsserve_registry_model_queue_depth{model=%q} %d\n", e.id, e.queued)
	}

	m.mu.Lock()
	keys := make([]modelReqKey, 0, len(m.modelRequests))
	counts := make(map[modelReqKey]uint64, len(m.modelRequests))
	for k, v := range m.modelRequests {
		keys = append(keys, k)
		counts[k] = v
	}
	m.mu.Unlock()
	if len(keys) == 0 {
		return
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].model != keys[j].model {
			return keys[i].model < keys[j].model
		}
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	io.WriteString(w, "# HELP hsserve_model_requests_total HTTP requests served, by model, endpoint, and status code.\n")
	io.WriteString(w, "# TYPE hsserve_model_requests_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(w, "hsserve_model_requests_total{model=%q,endpoint=%q,code=\"%d\"} %d\n",
			k.model, k.endpoint, k.code, counts[k])
	}
}
