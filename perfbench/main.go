// Command perfbench is the repository's benchmark. It runs one workload
// against the real serving and training code in a single process and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run records spans around the calls into each layer and reports per-layer
// metrics instead (and writes the spans under .bench_build/). Every
// prediction is checked bit for bit against the served snapshot in
// process; any mismatch or failed operation makes the command exit 1.
//
//	bash perfbench/run.sh --workload predict_batch --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// setups is how many times a run performs its set-up; setup_s is their
// median and the last one is measured.
const setups = 3

// cfg is what every workload receives.
type cfg struct {
	seed    uint64
	seconds time.Duration
	t       *tracer // nil unless --trace 1
	tally   *tally
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload measured: end-to-end metrics (untraced runs)
// or per-layer metrics (traced runs).
type outcome map[string]metric

func (o outcome) put(name, unit string, v float64) { o[name] = metric{Value: v, Unit: unit} }

var workloads = map[string]func(context.Context, cfg) (outcome, error){
	"predict_batch":  runBatch,
	"predict_update": runUpdate,
	"build":          runBuild,
}

func main() {
	workload := flag.String("workload", "", "predict_batch, predict_update or build")
	seed := flag.Uint64("seed", 1, "workload seed: every input is drawn from it")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *traced == 1))
}

func run(workload string, seed uint64, seconds int, traced bool) int {
	w, ok := workloads[workload]
	if !ok || seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", workload)
		return 2
	}
	c := cfg{seed: seed, seconds: time.Duration(seconds) * time.Second, tally: &tally{}}
	if traced {
		c.t = &tracer{}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	out, err := w(ctx, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	if traced {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", workload, seed))
		if err := writeSpans(path, c.t.all()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	for name, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			c.tally.fail("metric %s is not finite", name)
		}
	}
	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   outcome `json:"metrics"`
	}{c.tally.failed.Load() == 0, c.tally.attempted.Load(), c.tally.failed.Load(), out}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// tally counts attempted and failed operations. A failure is anything the
// oracle rejects: an error, a refusal (429 included), or a reply that is
// not bit-identical to the in-process prediction.
type tally struct {
	attempted, failed atomic.Int64
	logged            atomic.Int64
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	if t.logged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

// repeatSetup runs setup `setups` times, tearing down all but the last
// environment, and returns it with the median set-up time in seconds.
func repeatSetup[E any](setup func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setups-1 {
			teardown(e)
		}
		env = e
	}
	return env, median(times), nil
}

// heapWatch records the live heap marked by each garbage collection during
// the load phase. Its peak is reported as the p95 over GC cycles: the
// single largest cycle depends on which requests happened to be in flight
// when it marked, and varies from run to run far more than the p95.
type heapWatch struct {
	stop, done chan struct{}
	live       []float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		cycles := s[0].Value.Uint64()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				if len(h.live) == 0 {
					h.live = append(h.live, float64(s[1].Value.Uint64()))
				}
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != cycles {
				cycles = c
				h.live = append(h.live, float64(s[1].Value.Uint64()))
			}
		}
	}()
	return h
}

// peakMB stops the watcher and returns the p95 live heap in MiB.
func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	<-h.done
	return percentile(h.live, 95).Value / (1 << 20)
}

// loadStats is what every workload's load phase yields for the summary.
type loadStats struct {
	reqMS   []float64 // request latencies, ms (from due time in open loops)
	lateMS  []float64 // generator lateness, ms
	preds   int       // predictions answered over HTTP
	elapsed time.Duration
	readyS  []float64 // model-ready times, s
	medape  float64
	setupS  float64
	heapMB  float64
	metrics map[string]float64 // /metrics counters, change over the load phase
}

// take copies a load phase's operations into the stats.
func (s *loadStats) take(acc *collectOps, elapsed time.Duration) {
	s.reqMS, s.lateMS, s.preds, s.elapsed = acc.reqMS, acc.lateMS, acc.preds, elapsed
}

// delta adds after-before of every series to dst (allocated if nil).
func delta(dst, before, after map[string]float64) map[string]float64 {
	if dst == nil {
		dst = make(map[string]float64)
	}
	for k, v := range after {
		dst[k] += v - before[k]
	}
	return dst
}

// endToEnd derives the end-to-end metrics every workload reports.
func endToEnd(s loadStats) outcome {
	o := outcome{}
	o.put("setup_s", "s", s.setupS)
	o.put("heap_peak_mb", "MB", s.heapMB)
	o.put("preds_per_s", "1/s", float64(s.preds)/s.elapsed.Seconds())
	o.put("req_p50_ms", "ms", median(s.reqMS))
	o.put("model_ready_s", "s", median(s.readyS))
	o.put("medape_pct", "%", s.medape)
	q := tail(s.reqMS)
	fmt.Fprintf(os.Stderr, "perfbench: req tail p%v of %d requests %.4g ms; model-ready episodes %.3g s\n", q.P, q.N, q.Value, s.readyS)
	return o
}

// perLayer derives the per-layer metrics of a traced run from its spans,
// layer counters, captured wire bodies, and the /metrics delta.
func perLayer(t *tracer, s loadStats) (outcome, error) {
	spans := t.all()
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	o := outcome{}

	// serve / net/http and the client side of the wire.
	var httpSelf, clientEnc, reqBytes []float64
	for _, sp := range spans {
		call := byID[sp.Parent]
		if sp.Name != "http" || (call.Name != "client.predict" && call.Name != "client.batch") {
			continue
		}
		httpSelf = append(httpSelf, us(self[sp.ID]))
		clientEnc = append(clientEnc, us(sp.Start.Sub(call.Start)))
		reqBytes = append(reqBytes, float64(sp.N))
	}
	o.put("http.self_us", "us", median(httpSelf))
	o.put("wire.client_encode_us", "us", median(clientEnc))
	o.put("wire.bytes_per_req", "bytes", median(reqBytes))
	dec, enc, err := wireCost(t.takeExchanges())
	if err != nil {
		return nil, err
	}
	o.put("wire.decode_us", "us", dec)
	o.put("wire.encode_us", "us", enc)

	// Batcher probes: Server.Predict(Many) against Snapshot.PredictBatch on
	// the same items.
	var waits []float64
	var sweep time.Duration
	var swept int64
	for _, sp := range named(spans, "probe.sweep") {
		waits = append(waits, us(byID[sp.Parent].Dur()-sp.Dur()))
		sweep += sp.Dur()
		swept += sp.N
	}
	o.put("batcher.queue_wait_us", "us", median(waits))
	o.put("model.sweep_ns_per_pred", "ns/pred", float64(sweep)/float64(max(swept, 1)))
	m := s.metrics
	o.put("batcher.items_per_flush", "items", m["hsserve_batch_size_sum"]/max(m["hsserve_batch_size_count"], 1))
	o.put("batcher.sheds", "count", m["hsserve_sheds_total"]+m["hsserve_registry_sheds_total"])

	// Collection.
	var groups, samples, insts int64
	perInst := func(name string) float64 {
		var d time.Duration
		var n int64
		for _, sp := range named(spans, name) {
			d += sp.Dur()
			n += sp.N
		}
		return float64(d) / float64(max(n, 1))
	}
	groups = int64(len(named(spans, "collect.trace")))
	for _, sp := range named(spans, "collect.sim") {
		samples++
		insts += sp.N
	}
	o.put("collect.trace_ns_per_inst", "ns/inst", perInst("collect.trace"))
	o.put("collect.profile_ns_per_inst", "ns/inst", perInst("collect.profile"))
	o.put("collect.sim_ns_per_inst", "ns/inst", perInst("collect.sim"))
	o.put("collect.groups", "count", float64(groups))
	o.put("collect.samples", "count", float64(samples))
	o.put("collect.insts", "count", float64(insts))

	// Training.
	medMS := func(name string) float64 {
		var v []float64
		for _, sp := range named(spans, name) {
			v = append(v, float64(sp.Dur())/float64(time.Millisecond))
		}
		return median(v)
	}
	o.put("train.featurize_ms", "ms", medMS("train.featurize"))
	o.put("train.gram_build_ms", "ms", medMS("train.gram_build"))
	o.put("train.first_gen_ms", "ms", medMS("train.first_gen"))
	o.put("train.gen_ms", "ms", medMS("train.gen"))
	o.put("train.tail_ms", "ms", medMS("train.tail"))
	var evals []float64
	for _, sp := range named(spans, "train") {
		evals = append(evals, float64(sp.N))
	}
	o.put("train.evals", "count", median(evals))
	fits, qr := t.counter("train.gram_fits"), t.counter("train.qr_fallbacks")
	o.put("train.gram_share", "ratio", fits/max(fits+qr, 1))
	hits, misses := t.counter("train.memo_hits"), t.counter("train.memo_misses")
	o.put("train.memo_hit_ratio", "ratio", hits/max(hits+misses, 1))

	// Samples route, model-ready episodes, load generator.
	var absorb []float64
	for _, sp := range named(spans, "handler.samples") {
		absorb = append(absorb, us(sp.Dur()))
	}
	o.put("update.absorb_us", "us", median(absorb))
	o.put("model_ready.tail_ms", "ms", 1000*tail(s.readyS).Value)
	o.put("loadgen.late_p99_ms", "ms", percentile(s.lateMS, 99).Value)

	// The workload's own end-to-end figures under tracing, to compare with
	// an untraced run: their difference is the tracing overhead.
	o.put("traced.req_p50_ms", "ms", median(s.reqMS))
	o.put("traced.req_tail_ms", "ms", tail(s.reqMS).Value)
	o.put("traced.model_ready_s", "s", median(s.readyS))
	return o, nil
}

// report picks the end-to-end or per-layer metrics and checks the
// run-wide invariants.
func report(c cfg, s loadStats) (outcome, error) {
	if len(s.readyS) == 0 || len(s.reqMS) == 0 {
		return nil, fmt.Errorf("load phase completed %d requests and %d model-ready episodes", len(s.reqMS), len(s.readyS))
	}
	if c.t != nil {
		return perLayer(c.t, s)
	}
	return endToEnd(s), nil
}

// writeSpans dumps the run's spans as JSON, times in nanoseconds from the
// first span's start.
func writeSpans(path string, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}
	type rec struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent,omitempty"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		N      int64  `json:"n,omitempty"`
	}
	out := make([]rec, len(spans))
	for i, s := range spans {
		out[i] = rec{s.ID, s.Parent, s.Name, int64(s.Start.Sub(origin)), int64(s.End.Sub(origin)), s.N}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// collectOps gathers the load generators' operations under a lock.
type collectOps struct {
	mu     sync.Mutex
	reqMS  []float64
	lateMS []float64
	preds  int
	last   time.Time
}

// add records a client's operations; preds[i] is the predictions operation
// i answered over HTTP, or -1 for an in-process probe, which counts toward
// generator lateness but not toward request latency.
func (c *collectOps) add(ops []op, preds []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, o := range ops {
		c.lateMS = append(c.lateMS, float64(o.Late())/float64(time.Millisecond))
		if preds[i] >= 0 {
			c.reqMS = append(c.reqMS, float64(o.Latency())/float64(time.Millisecond))
			c.preds += preds[i]
		}
		if o.Done.After(c.last) {
			c.last = o.Done
		}
	}
}
