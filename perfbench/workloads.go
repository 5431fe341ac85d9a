package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/rng"
	"hsmodel/internal/stats"
	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

// probeEvery: in traced runs every probeEvery-th operation of a client is
// sent to the batcher in process instead of over HTTP, so queue wait and
// sweep time are measured on the same items.
const probeEvery = 8

// modelSeed seeds everything a workload's model is built from: profile
// collection, the genetic search, and the fitness splits. It is hsserve's
// default -seed and experiments.Quick().Seed. Keeping the model fixed keeps
// training cost and accuracy the same from run to run (some stores push
// most Gram fits onto the QR fallback and make updates several times
// slower); the workload seed varies the traffic instead.
const modelSeed = 1

// samplesChunk is how many profiles one samples POST carries.
const samplesChunk = 16

// matches reports whether v is bit-identical to snap's in-process
// prediction for it.
func matches(v float64, snap *core.Snapshot, it *item) bool {
	want, err := snap.PredictShard(it.X, it.HW)
	return err == nil && math.Float64bits(v) == math.Float64bits(want)
}

// absorb POSTs samples to the samples route in chunks, without an update.
func absorb(ctx context.Context, c cfg, cl client, samples []core.Sample) error {
	for i := 0; i < len(samples); i += samplesChunk {
		part := samples[i:min(i+samplesChunk, len(samples))]
		resp, err := postSamples(ctx, c, cl, part, false)
		if err != nil {
			return err
		}
		if resp.Accepted != len(part) {
			return fmt.Errorf("samples POST accepted %d of %d", resp.Accepted, len(part))
		}
	}
	return nil
}

func postSamples(ctx context.Context, c cfg, cl client, part []core.Sample, update bool) (hsmodel.SamplesResponse, error) {
	wires := make([]hsmodel.SampleWire, len(part))
	for j, s := range part {
		wires[j] = hsmodel.SampleToWire(s)
	}
	id := c.t.newID()
	start := time.Now()
	resp, err := cl.Samples(withCall(ctx, id), hsmodel.SamplesRequest{Samples: wires, Update: update})
	c.t.add(span{ID: id, Name: "client.samples", Start: start, End: time.Now(), N: int64(len(part))})
	return resp, err
}

// predictOne sends one single-shard predict and checks the reply against
// the snapshot served before or after it (an update may land in between).
// It returns the served CPI.
func predictOne(ctx context.Context, c cfg, cl client, tr *core.Trainer, it *item) float64 {
	before := tr.Snapshot()
	id := c.t.newID()
	start := time.Now()
	resp, err := cl.Predict(withCall(ctx, id), it.req)
	c.t.add(span{ID: id, Name: "client.predict", Start: start, End: time.Now(), N: 1})
	switch {
	case err != nil:
		c.tally.fail("predict: %v", err)
	case resp.Shards != 1 || !matches(resp.CPI, before, it) && !matches(resp.CPI, tr.Snapshot(), it):
		c.tally.fail("predict reply %v (shards %d) differs from the in-process prediction", resp.CPI, resp.Shards)
	default:
		c.tally.ok()
	}
	return resp.CPI
}

// probe answers items through the default entry's batcher in process —
// Server.Predict for one item, Server.PredictMany for several — then times
// Snapshot.PredictBatch on the same rows, and checks both against the
// in-process prediction. It returns the batcher's answers.
func probe(ctx context.Context, c cfg, s *server, tr *core.Trainer, items []*item) []float64 {
	xs := make([]hsmodel.Characteristics, len(items))
	hws := make([]hsmodel.Config, len(items))
	rows := make([][]float64, len(items))
	for i, it := range items {
		xs[i], hws[i], rows[i] = it.X, it.HW, it.Row()
	}
	out, swept := make([]float64, len(items)), make([]float64, len(items))
	n := int64(len(items))
	before := tr.Snapshot()
	id := c.t.newID()
	start := time.Now()
	var err error
	if len(items) == 1 {
		out[0], err = s.srv.Predict(ctx, xs[0], hws[0])
	} else {
		err = s.srv.PredictMany(ctx, xs, hws, out)
	}
	mid := time.Now()
	c.t.add(span{ID: id, Name: "probe.serve", Start: start, End: mid, N: n})
	snap := tr.Snapshot()
	if err == nil {
		err = snap.PredictBatch(rows, swept)
	}
	c.t.add(span{Parent: id, Name: "probe.sweep", Start: mid, End: time.Now(), N: n})
	if err != nil {
		c.tally.fail("probe: %v", err)
		return out
	}
	for i, it := range items {
		if !matches(out[i], before, it) && !matches(out[i], snap, it) || !matches(swept[i], snap, it) {
			c.tally.fail("probe item %d differs from the in-process prediction", i)
			return out
		}
	}
	c.tally.ok()
	return out
}

// draw picks n pool items.
func draw(src *rng.Source, pool []item, n int) []*item {
	out := make([]*item, n)
	for i := range out {
		out[i] = &pool[src.Intn(len(pool))]
	}
	return out
}

// drive runs one client's loop and records its operations: do(k) returns
// the predictions a request answered, or -1 for an in-process probe, which
// is checked but kept out of the request latencies.
func drive(acc *collectOps, loop func(do func(k int)) []op, do func(k int) int) {
	var preds []int
	ops := loop(func(k int) { preds = append(preds, do(k)) })
	acc.add(ops, preds)
}

// isProbe reports whether a traced client's k-th operation is a probe.
func isProbe(c cfg, k int) bool { return c.t != nil && k%probeEvery == probeEvery-1 }

// Workload predict_batch: the design-space-exploration client. The model is
// bootstrap-trained with hsserve -bootstrap's defaults; two closed-loop
// clients each POST predict:batch requests of 64 single-shard items drawn
// from a held-out pool.
const (
	bootApps, bootSamples    = 3, 40
	bootPop, bootGens        = 24, 8
	bootShardLen             = 50_000
	batchItems, batchClients = 64, 2
	batchPoolPerApp          = 32
)

type batchEnv struct {
	tr      *core.Trainer
	srv     *server
	clients []client
	pool    []item
	readyS  float64
	medape  float64
}

func (e *batchEnv) close() {
	for _, cl := range e.clients {
		cl.close()
	}
	e.srv.close()
}

func setupBatch(ctx context.Context, c cfg) (*batchEnv, error) {
	start := time.Now()
	apps := trace.SPEC2006()[:bootApps]
	tr := hsmodel.New(nil, hsmodel.WithSeed(modelSeed), hsmodel.WithShardLen(bootShardLen))
	tr.Search = hsmodel.SearchParams{PopulationSize: bootPop, Generations: bootGens, Seed: modelSeed}
	var g genLog
	g.watch(c.t, tr)
	srv, err := startServer(tr, c.t)
	if err != nil {
		return nil, err
	}
	e := &batchEnv{tr: tr, srv: srv}
	for i := 0; i < batchClients; i++ {
		e.clients = append(e.clients, srv.client(c.t))
	}
	fail := func(err error) (*batchEnv, error) {
		e.close()
		return nil, err
	}
	samples, err := collect(c.t, apps, bootSamples, modelSeed, bootShardLen)
	if err != nil {
		return fail(err)
	}
	if err := absorb(ctx, c, e.clients[0], samples); err != nil {
		return fail(err)
	}
	if err := train(ctx, c.t, &g, tr); err != nil {
		return fail(err)
	}
	e.readyS = c.t.record("model.ready", 0, start, 0).Sub(start).Seconds()
	e.pool = heldOut(apps, batchPoolPerApp, bootShardLen)
	if e.medape, err = medAPE(tr.Snapshot(), e.pool); err != nil {
		return fail(err)
	}
	src := rng.New(c.seed ^ 0xBA7C)
	for i := 0; i < 4; i++ {
		for _, cl := range e.clients {
			e.batch(ctx, c, cl, draw(src, e.pool, batchItems))
		}
	}
	return e, nil
}

// batch sends one predict:batch request and checks every item.
func (e *batchEnv) batch(ctx context.Context, c cfg, cl client, items []*item) {
	req := hsmodel.BatchPredictRequest{Requests: make([]hsmodel.PredictRequest, len(items))}
	for i, it := range items {
		req.Requests[i] = it.req
	}
	snap := e.tr.Snapshot()
	id := c.t.newID()
	start := time.Now()
	resp, err := cl.PredictBatch(withCall(ctx, id), req)
	c.t.add(span{ID: id, Name: "client.batch", Start: start, End: time.Now(), N: int64(len(items))})
	if err != nil {
		c.tally.fail("predict:batch: %v", err)
		return
	}
	if len(resp.Results) != len(items) {
		c.tally.fail("predict:batch answered %d of %d items", len(resp.Results), len(items))
		return
	}
	for i, r := range resp.Results {
		if r.Error != "" || r.Shards != 1 || !matches(r.CPI, snap, items[i]) {
			c.tally.fail("predict:batch item %d: %+v differs from the in-process prediction", i, r)
			return
		}
	}
	c.tally.ok()
}

func runBatch(ctx context.Context, c cfg) (outcome, error) {
	// Every set-up's bootstrap is a model-ready episode.
	var ready []float64
	e, setupS, err := repeatSetup(func() (*batchEnv, error) {
		e, err := setupBatch(ctx, c)
		if err == nil {
			ready = append(ready, e.readyS)
		}
		return e, err
	}, (*batchEnv).close)
	if err != nil {
		return nil, err
	}
	defer e.close()
	st := loadStats{setupS: setupS, readyS: ready, medape: e.medape}
	before := e.srv.scrape()
	heap := watchHeap()
	var acc collectOps
	start := time.Now()
	end := start.Add(c.seconds)
	var wg sync.WaitGroup
	for ci, cl := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := rng.New(c.seed).Fork(uint64(ci) + 1)
			drive(&acc, func(do func(int)) []op { return closedLoop(wallClock{}, until(end), do) }, func(k int) int {
				items := draw(src, e.pool, batchItems)
				if isProbe(c, k) {
					probe(ctx, c, e.srv, e.tr, items)
					return -1
				}
				e.batch(ctx, c, cl, items)
				return len(items)
			})
		}()
	}
	wg.Wait()
	st.heapMB = heap.peakMB()
	st.metrics = delta(nil, before, e.srv.scrape())
	st.take(&acc, acc.last.Sub(start))
	return report(c, st)
}

// Workload predict_update: reads beside writes on a growing store. An open
// loop reads single predicts at a constant rate over one connection while a
// closed-loop writer on a second connection POSTs fresh profiles of a new
// application with update:true, waits for the re-specified model to serve
// them, pauses, and repeats. The trainer uses the genetic defaults and
// family selection, so every update is a full selection round.
const (
	updBaseApps, updPerApp = 6, 64
	updShardLen            = 20_000
	updBatch               = 16
	updPause               = 250 * time.Millisecond
	updRoundsPerSecond     = 1.5
	readPeriod             = 5 * time.Millisecond // 200 req/s
	updPoolPerApp          = 16
	updWait                = 60 * time.Second
)

type updateEnv struct {
	tr             *core.Trainer
	g              *genLog
	srv            *server
	reader, writer client
	fresh          []core.Sample // the new application's profiles, in write order
	pool           []item
}

func (e *updateEnv) close() {
	e.reader.close()
	e.writer.close()
	e.srv.close()
}

func setupUpdate(ctx context.Context, c cfg) (*updateEnv, error) {
	apps := trace.SPEC2006()
	tr := hsmodel.New(nil, hsmodel.WithSeed(modelSeed), hsmodel.WithShardLen(updShardLen), hsmodel.WithFamilySelection())
	e := &updateEnv{tr: tr, g: &genLog{}}
	e.g.watch(c.t, tr)
	srv, err := startServer(tr, c.t)
	if err != nil {
		return nil, err
	}
	e.srv, e.reader, e.writer = srv, srv.client(c.t), srv.client(c.t)
	fail := func(err error) (*updateEnv, error) {
		e.close()
		return nil, err
	}
	store, err := collect(c.t, apps[:updBaseApps], updPerApp, modelSeed, updShardLen)
	if err != nil {
		return fail(err)
	}
	if err := absorb(ctx, c, e.writer, store); err != nil {
		return fail(err)
	}
	if err := train(ctx, c.t, e.g, tr); err != nil {
		return fail(err)
	}
	e.fresh = (&core.Collector{ShardLen: updShardLen}).Collect(apps[updBaseApps:], updRounds(c)*updBatch, modelSeed^0x7E57)
	for i := range e.fresh {
		e.fresh[i].AppID = updBaseApps
	}
	e.pool = heldOut(apps, updPoolPerApp, updShardLen)
	src := rng.New(c.seed ^ 0x3EAD)
	for i := 0; i < 10; i++ {
		predictOne(ctx, c, e.reader, tr, draw(src, e.pool, 1)[0])
	}
	return e, nil
}

// updRounds is the number of write rounds a run makes. A fixed count,
// rather than writing until the clock runs out, keeps the set of updates —
// and so the store sizes they train on — the same in every run.
func updRounds(c cfg) int { return int(c.seconds.Seconds() * updRoundsPerSecond) }

// waitServing polls until the served snapshot was trained on exactly rows
// rows and the store holds exactly that many.
func waitServing(ctx context.Context, tr *core.Trainer, rows int) error {
	deadline := time.Now().Add(updWait)
	for {
		got := tr.Snapshot().TrainedRows()
		if got == rows && tr.NumSamples() == rows {
			return nil
		}
		if got > rows || time.Now().After(deadline) {
			return fmt.Errorf("serving a model trained on %d rows, want the %d-row store", got, rows)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
	}
}

func runUpdate(ctx context.Context, c cfg) (outcome, error) {
	e, setupS, err := repeatSetup(func() (*updateEnv, error) { return setupUpdate(ctx, c) }, (*updateEnv).close)
	if err != nil {
		return nil, err
	}
	defer e.close()
	st := loadStats{setupS: setupS, medape: math.NaN()}
	before := e.srv.scrape()
	heap := watchHeap()
	var acc collectOps
	start := time.Now()
	var writing atomic.Bool
	writing.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := rng.New(c.seed).Fork(1)
		stop := func(int, time.Time) bool { return !writing.Load() }
		drive(&acc, func(do func(int)) []op { return openLoop(wallClock{}, start, readPeriod, stop, do) }, func(k int) int {
			it := draw(src, e.pool, 1)
			if isProbe(c, k) {
				probe(ctx, c, e.srv, e.tr, it)
				return -1
			}
			predictOne(ctx, c, e.reader, e.tr, it[0])
			return 1
		})
	}()

	// The reads run for as long as the writer does.
	for r := 0; r < updRounds(c); r++ {
		t0 := time.Now()
		resp, err := postSamples(ctx, c, e.writer, e.fresh[r*updBatch:(r+1)*updBatch], true)
		if err != nil || !resp.UpdateStarted {
			c.tally.fail("samples POST with update: started=%v err=%v", resp.UpdateStarted, err)
			break
		}
		if err := waitServing(ctx, e.tr, resp.TotalSamples); err != nil {
			c.tally.fail("update %d: %v", r, err)
			break
		}
		done := c.t.record("model.ready", 0, t0, int64(resp.TotalSamples))
		trainPhases(c.t, e.g, e.tr, t0, done)
		st.readyS = append(st.readyS, done.Sub(t0).Seconds())
		c.tally.ok()
		if r == 0 {
			if st.medape, err = medAPE(e.tr.Snapshot(), e.pool); err != nil {
				c.tally.fail("MedAPE after the first update: %v", err)
			}
		}
		time.Sleep(updPause)
	}
	writing.Store(false)
	wg.Wait()
	st.heapMB = heap.peakMB()
	st.metrics = delta(nil, before, e.srv.scrape())
	st.take(&acc, acc.last.Sub(start))
	return report(c, st)
}

// Workload build: time to a first model. Collector.Collect over the seven
// stand-ins at experiments.Quick() scale, Trainer.Train with family
// selection at Quick's search size, then the model is served and checked
// over HTTP on 140 held-out pairs (MedAPE from the served answers), and the
// measured truths are fed back through the samples route. Repeated with the
// same seed while time remains, at least twice.
const (
	buildPerApp, buildShardLen = 120, 50_000
	buildPop, buildGens        = 36, 12
	checkPerApp                = 20 // 7 x 20 = 140 held-out pairs
	checkClients               = 2
)

func runBuild(ctx context.Context, c cfg) (outcome, error) {
	apps := trace.SPEC2006()
	pool, setupS, err := repeatSetup(func() ([]item, error) {
		pool := heldOut(apps, checkPerApp, buildShardLen)
		// The workload seed sets the order the pairs are checked in.
		src := rng.New(c.seed)
		for i := len(pool) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			pool[i], pool[j] = pool[j], pool[i]
		}
		return pool, nil
	}, func([]item) {})
	if err != nil {
		return nil, err
	}
	st := loadStats{setupS: setupS}
	heap := watchHeap()
	var acc collectOps
	var checkTime time.Duration
	end := time.Now().Add(c.seconds)
	for b := 0; b < 2 || time.Now().Before(end); b++ {
		t0 := time.Now()
		samples, err := collect(c.t, apps, buildPerApp, modelSeed, buildShardLen)
		if err != nil {
			return nil, err
		}
		tr := hsmodel.New(samples, hsmodel.WithSeed(modelSeed), hsmodel.WithShardLen(buildShardLen),
			hsmodel.WithFamilySelection(), hsmodel.WithPopulation(buildPop), hsmodel.WithGenerations(buildGens))
		var g genLog
		g.watch(c.t, tr)
		if err := train(ctx, c.t, &g, tr); err != nil {
			return nil, err
		}
		st.readyS = append(st.readyS, c.t.record("model.ready", 0, t0, 0).Sub(t0).Seconds())

		t1 := time.Now()
		medape, err := check(ctx, c, tr, pool, &acc, &st)
		if err != nil {
			return nil, err
		}
		checkTime += time.Since(t1)
		switch {
		case b == 0:
			st.medape = medape
			c.tally.ok()
		case math.Float64bits(medape) != math.Float64bits(st.medape):
			c.tally.fail("build %d MedAPE %v differs from build 0's %v at the same seed", b, medape, st.medape)
		default:
			c.tally.ok()
		}
	}
	st.heapMB = heap.peakMB()
	st.take(&acc, checkTime)
	return report(c, st)
}

// check serves a freshly built model, predicts every held-out pair over
// HTTP from two closed-loop clients, feeds the measured truths back through
// the samples route, and returns the MedAPE of the served answers.
func check(ctx context.Context, c cfg, tr *core.Trainer, pool []item, acc *collectOps, st *loadStats) (float64, error) {
	s, err := startServer(tr, c.t)
	if err != nil {
		return 0, err
	}
	defer s.close()
	before := s.scrape()
	served := make([]float64, len(pool))
	clients := make([]client, checkClients)
	var wg sync.WaitGroup
	for ci := range clients {
		clients[ci] = s.client(c.t)
		defer clients[ci].close()
		var mine []int
		for i := ci; i < len(pool); i += checkClients {
			mine = append(mine, i)
		}
		wg.Add(1)
		go func(cl client) {
			defer wg.Done()
			stop := func(k int, _ time.Time) bool { return k >= len(mine) }
			drive(acc, func(do func(int)) []op { return closedLoop(wallClock{}, stop, do) }, func(k int) int {
				it := &pool[mine[k]]
				if isProbe(c, k) {
					served[mine[k]] = probe(ctx, c, s, tr, []*item{it})[0]
					return -1
				}
				served[mine[k]] = predictOne(ctx, c, cl, tr, it)
				return 1
			})
		}(clients[ci])
	}
	wg.Wait()

	truths := make([]core.Sample, len(pool))
	truth := make([]float64, len(pool))
	for i, it := range pool {
		truths[i], truth[i] = it.Sample, it.CPI
	}
	rows := tr.NumSamples()
	if err := absorb(ctx, c, clients[0], truths); err != nil {
		return 0, err
	}
	if got := tr.NumSamples(); got != rows+len(truths) {
		c.tally.fail("store holds %d samples after feeding back %d, want %d", got, len(truths), rows+len(truths))
	}
	st.metrics = delta(st.metrics, before, s.scrape())
	medape := 100 * stats.MedianAbsPctError(served, truth)
	if math.IsNaN(medape) || math.IsInf(medape, 0) || medape <= 0 {
		c.tally.fail("build MedAPE %v is not a finite positive percentage", medape)
	}
	return medape, nil
}
