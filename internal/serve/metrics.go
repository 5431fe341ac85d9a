// Metrics: request counters, latency histograms, the batch-size
// distribution, and per-model gauges, exposed in Prometheus text exposition
// format on GET /metrics — standard library only. The fixed bucket layouts
// keep observation lock-free (atomic bucket counters plus a CAS-accumulated
// sum); only the requests-per-(model, endpoint, code) map takes a mutex, and
// only for a map increment.
package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"hsmodel/pkg/hsmodel"
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

// reqKey labels one requests_total series; model is the id of the registry
// entry that served the request, "" on a route that addresses none.
type reqKey struct {
	model    string
	endpoint string
	code     int
}

// maxRequestSeries caps the requests_total map. Endpoints are a fixed set,
// but status codes and model ids arrive from traffic, so without a cap a
// label-spraying client grows the map — and the scrape page — without bound.
// At the cap, new label combinations are dropped (existing series keep
// counting) and the drop is itself counted.
const maxRequestSeries = 4096

// metrics aggregates everything GET /metrics exposes.
type metrics struct {
	mu            sync.Mutex
	requests      map[reqKey]uint64
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
		requests:  make(map[reqKey]uint64),
		latency:   make(map[string]*histogram, len(endpointNames)),
		batchSize: newHistogram(batchBuckets),
	}
	for _, e := range endpointNames {
		m.latency[e] = newHistogram(latencyBuckets)
	}
	return m
}

// observeRequest records one completed request; model is "" on a route that
// addresses no registry entry.
func (m *metrics) observeRequest(model, endpoint string, code int, seconds float64) {
	k := reqKey{model, endpoint, code}
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

// observeBatch records the size of one coalesced evaluator pass.
func (m *metrics) observeBatch(n int) { m.batchSize.observe(float64(n)) }

// writeTo renders the full exposition page from one view per registry
// entry. Lock coverage on the read path: the requests map is copied under mu
// before rendering; every histogram and counter read is an atomic load (a
// bucket/sum/count triple may be mutually torn mid-observation, which skews
// one scrape by at most one in-flight event and never corrupts
// monotonicity); the latency map itself is written only in newMetrics.
// TestMetricsScrapeDuringPredictLoad holds this under -race.
func (m *metrics) writeTo(w io.Writer, views []entryView) {
	io.WriteString(w, "# HELP hsserve_requests_total HTTP requests served, by model (on entry-addressed routes), endpoint and status code.\n")
	io.WriteString(w, "# TYPE hsserve_requests_total counter\n")
	m.mu.Lock()
	keys := make([]reqKey, 0, len(m.requests))
	counts := make(map[reqKey]uint64, len(m.requests))
	for k, v := range m.requests {
		keys = append(keys, k)
		counts[k] = v
	}
	dropped := m.droppedSeries
	m.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].model != keys[j].model {
			return keys[i].model < keys[j].model
		}
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		model := ""
		if k.model != "" {
			model = fmt.Sprintf("model=%q,", k.model)
		}
		fmt.Fprintf(w, "hsserve_requests_total{%sendpoint=%q,code=\"%d\"} %d\n", model, k.endpoint, k.code, counts[k])
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

	io.WriteString(w, "# HELP hsserve_metrics_series_dropped_total Label combinations rejected at the counter cardinality cap.\n")
	io.WriteString(w, "# TYPE hsserve_metrics_series_dropped_total counter\n")
	fmt.Fprintf(w, "hsserve_metrics_series_dropped_total %d\n", dropped)

	writeModels(w, views)
	writeLifecycle(w, views)
}

// writeModels renders every entry's publication, store and queue: one
// series per entry per gauge, labeled model="<id>".
func writeModels(w io.Writer, views []entryView) {
	status := make([]hsmodel.ModelStatus, len(views))
	for i, v := range views {
		status[i] = v.status()
	}
	for _, g := range []struct {
		name, help string
		value      func(i int) any
	}{
		{"trained", "Whether the entry serves a model (1) or not (0)", func(i int) any {
			if status[i].Trained {
				return 1
			}
			return 0
		}},
		{"snapshot_version", "Model publications by the entry's trainer (0 before the first)", func(i int) any { return status[i].SnapshotVersion }},
		{"snapshot_age_seconds", "Seconds since the entry's snapshot was published (0 before the first publication)", func(i int) any { return views[i].age().Seconds() }},
		{"samples", "Profile-store size", func(i int) any { return status[i].TotalSamples }},
		{"trained_rows", "Rows the served snapshot was trained on", func(i int) any { return status[i].TrainedRows }},
		{"queue_depth", "Queued predictions", func(i int) any { return status[i].QueueDepth }},
	} {
		fmt.Fprintf(w, "# HELP hsserve_registry_model_%s %s, by model.\n", g.name, g.help)
		fmt.Fprintf(w, "# TYPE hsserve_registry_model_%s gauge\n", g.name)
		for i, st := range status {
			fmt.Fprintf(w, "hsserve_registry_model_%s{model=%q} %v\n", g.name, st.ID, g.value(i))
		}
	}
	io.WriteString(w, "# HELP hsserve_registry_model_family Which model family the entry's snapshot came from (1 on its family's label), by model; absent for an untrained entry.\n")
	io.WriteString(w, "# TYPE hsserve_registry_model_family gauge\n")
	for _, st := range status {
		if st.Family != "" {
			fmt.Fprintf(w, "hsserve_registry_model_family{model=%q,family=%q} 1\n", st.ID, st.Family)
		}
	}
}

// writeLifecycle renders every control loop's gauges and counters, one
// series per entry with a loop, labeled model="<id>"; with no loop it writes
// nothing.
func writeLifecycle(w io.Writer, views []entryView) {
	var lcs []entryView
	for _, v := range views {
		if v.lc != nil {
			lcs = append(lcs, v)
		}
	}
	if len(lcs) == 0 {
		return
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_state Control-loop state (one-hot over the state machine), by model.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_state gauge\n")
	for _, v := range lcs {
		for _, st := range []string{"stable", "drift-suspected", "gathering", "retraining", "cooldown"} {
			on := 0
			if v.lc.State == st {
				on = 1
			}
			fmt.Fprintf(w, "hsserve_lifecycle_state{model=%q,state=%q} %d\n", v.id(), st, on)
		}
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_drift_score CUSUM drift score of the streaming error detector, by model.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_drift_score gauge\n")
	for _, v := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_drift_score{model=%q} %g\n", v.id(), v.lc.DriftScore)
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_err_ewma Smoothed |relative error| of the served model on the live stream, by model.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_err_ewma gauge\n")
	for _, v := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_err_ewma{model=%q} %g\n", v.id(), v.lc.ErrEWMA)
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_store_occupancy Bounded sample-store occupancy, by model and store.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_store_occupancy gauge\n")
	for _, v := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_store_occupancy{model=%q,store=\"reservoir\"} %d\n", v.id(), v.lc.ReservoirLen)
		fmt.Fprintf(w, "hsserve_lifecycle_store_occupancy{model=%q,store=\"ring\"} %d\n", v.id(), v.lc.RingLen)
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_store_capacity Bounded sample-store capacity, by model and store.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_store_capacity gauge\n")
	for _, v := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_store_capacity{model=%q,store=\"reservoir\"} %d\n", v.id(), v.lc.ReservoirCap)
		fmt.Fprintf(w, "hsserve_lifecycle_store_capacity{model=%q,store=\"ring\"} %d\n", v.id(), v.lc.RingCap)
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_episodes_total Control-loop episode outcomes, by model and kind.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_episodes_total counter\n")
	for _, v := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_episodes_total{model=%q,kind=\"retrain\"} %d\n", v.id(), v.lc.Retrains)
		fmt.Fprintf(w, "hsserve_lifecycle_episodes_total{model=%q,kind=\"promotion\"} %d\n", v.id(), v.lc.Promotions)
		fmt.Fprintf(w, "hsserve_lifecycle_episodes_total{model=%q,kind=\"rollback\"} %d\n", v.id(), v.lc.Rollbacks)
		fmt.Fprintf(w, "hsserve_lifecycle_episodes_total{model=%q,kind=\"ladder_failure\"} %d\n", v.id(), v.lc.LadderFailures)
	}
	io.WriteString(w, "# HELP hsserve_lifecycle_canary_err Canary MedAPE of the last candidate vs the incumbent on the same set, by model and role.\n")
	io.WriteString(w, "# TYPE hsserve_lifecycle_canary_err gauge\n")
	for _, v := range lcs {
		fmt.Fprintf(w, "hsserve_lifecycle_canary_err{model=%q,role=\"candidate\"} %g\n", v.id(), v.lc.CanaryErr)
		fmt.Fprintf(w, "hsserve_lifecycle_canary_err{model=%q,role=\"incumbent\"} %g\n", v.id(), v.lc.IncumbentErr)
	}
}
