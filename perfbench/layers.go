package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/cpu"
	"hsmodel/internal/genetic"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/isa"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
	"hsmodel/internal/stats"
	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

// collect runs the collection a model is trained on. Untraced it is
// Collector.Collect. Traced, it issues the same (application, shard,
// architecture) requests through the public calls the Collector makes —
// ShardStream plus isa.Collect, profile.Stream, cpu.New(hw).Run — with the
// same worker fan-out, timing each layer; a sample of the result is checked
// bit for bit against Collector.CollectPairs.
func collect(t *tracer, apps []*trace.App, perApp int, seed uint64, shardLen int) ([]core.Sample, error) {
	if t == nil {
		c := &core.Collector{ShardLen: shardLen}
		return c.Collect(apps, perApp, seed), nil
	}
	const pool = 60 // Collector's default shard pool
	type req struct {
		appID, shard int
		hw           hwspace.Config
	}
	src := rng.New(seed)
	var reqs []req
	for appID := range apps {
		appSrc := src.Fork(uint64(appID))
		for k := 0; k < perApp; k++ {
			shard := appSrc.Intn(pool)
			reqs = append(reqs, req{appID, shard, hwspace.FromIndices(hwspace.Sample(appSrc))})
		}
	}
	type key struct{ appID, shard int }
	groups := make(map[key][]int)
	var order []key
	for i, r := range reqs {
		k := key{r.appID, r.shard}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}

	out := make([]core.Sample, len(reqs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, k := range order {
		wg.Add(1)
		sem <- struct{}{}
		go func(k key, idxs []int) {
			defer wg.Done()
			defer func() { <-sem }()
			app := apps[k.appID]
			start := time.Now()
			insts := isa.Collect(app.ShardStream(k.shard, shardLen), 0)
			n := int64(len(insts))
			start = t.record("collect.trace", 0, start, n)
			x := profile.Stream(app.ShardStream(k.shard, shardLen), app.Name, k.shard).X
			t.record("collect.profile", 0, start, n)
			ss := &isa.SliceStream{Insts: insts}
			for _, i := range idxs {
				ss.Reset()
				start := time.Now()
				res := cpu.New(reqs[i].hw).Run(ss)
				t.record("collect.sim", 0, start, n)
				out[i] = core.Sample{App: app.Name, AppID: k.appID, Shard: k.shard, X: x, HW: reqs[i].hw, CPI: res.CPI()}
			}
		}(k, groups[k])
	}
	wg.Wait()

	// Cross-check the first few samples against the Collector itself.
	m := min(len(reqs), 4)
	ids, shards, hws := make([]int, m), make([]int, m), make([]hwspace.Config, m)
	for i := range ids {
		ids[i], shards[i], hws[i] = reqs[i].appID, reqs[i].shard, reqs[i].hw
	}
	ref := (&core.Collector{ShardLen: shardLen}).CollectPairs(apps, ids, shards, hws)
	for i, s := range ref {
		if !sameSample(s, out[i]) {
			return nil, fmt.Errorf("traced collection diverged from Collector at sample %d", i)
		}
	}
	return out, nil
}

func sameSample(a, b core.Sample) bool {
	if a.AppID != b.AppID || a.Shard != b.Shard || a.HW != b.HW || math.Float64bits(a.CPI) != math.Float64bits(b.CPI) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// item is one held-out (shard, architecture) pair: the sample with its
// simulated CPI, and the request a client sends for it (characteristics
// plus Table 2 level indices).
type item struct {
	core.Sample
	req hsmodel.PredictRequest
}

// heldOut draws perApp (shard, architecture) pairs per application from a
// fixed seed disjoint from the training draws and simulates their truth.
// The set is the same in every run, so accuracy on it is a function of the
// model alone.
func heldOut(apps []*trace.App, perApp int, shardLen int) []item {
	src := rng.New(modelSeed ^ 0xFACE)
	var ids, shards []int
	var hws []hwspace.Config
	var archs [][]int
	for appID := range apps {
		for k := 0; k < perApp; k++ {
			ix := hwspace.Sample(src)
			ids = append(ids, appID)
			shards = append(shards, src.Intn(60))
			hws = append(hws, hwspace.FromIndices(ix))
			archs = append(archs, ix[:])
		}
	}
	samples := (&core.Collector{ShardLen: shardLen}).CollectPairs(apps, ids, shards, hws)
	items := make([]item, len(samples))
	for i, s := range samples {
		items[i] = item{Sample: s, req: hsmodel.PredictRequest{X: append([]float64(nil), s.X[:]...), Arch: archs[i]}}
	}
	return items
}

// medAPE is the median absolute percentage error of snap on items, in
// percent.
func medAPE(snap *core.Snapshot, items []item) (float64, error) {
	pred, truth := make([]float64, len(items)), make([]float64, len(items))
	for i, it := range items {
		v, err := snap.PredictShard(it.X, it.HW)
		if err != nil {
			return 0, err
		}
		pred[i], truth[i] = v, it.CPI
	}
	return 100 * stats.MedianAbsPctError(pred, truth), nil
}

// genLog collects Search.OnGeneration timestamps of the training runs in
// flight.
type genLog struct {
	mu    sync.Mutex
	times []time.Time
}

func (g *genLog) hook(genetic.GenStats) {
	g.mu.Lock()
	g.times = append(g.times, time.Now())
	g.mu.Unlock()
}

func (g *genLog) take() []time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.times
	g.times = nil
	return out
}

// watch installs the generation hook on a trainer (traced runs only).
func (g *genLog) watch(t *tracer, tr *core.Trainer) {
	if t != nil {
		tr.Search.OnGeneration = g.hook
	}
}

// train runs tr.Train. Traced, it first times the featurizer and Gram-cache
// builds the trainer is about to do, on the same rows (uniform weights),
// then records the training's generation phases and fit-path counters.
func train(ctx context.Context, t *tracer, g *genLog, tr *core.Trainer) error {
	if t != nil {
		start := time.Now()
		fz, err := regress.NewFeaturizer(core.ToDataset(tr.Samples()), tr.Stabilize)
		if err != nil {
			return err
		}
		start = t.record("train.featurize", 0, start, int64(fz.NumRows()))
		if _, err := regress.NewGramCache(fz, regress.Options{LogResponse: tr.LogResponse}); err != nil {
			return err
		}
		t.record("train.gram_build", 0, start, int64(fz.NumRows()))
		g.take()
	}
	start := time.Now()
	if err := tr.Train(ctx); err != nil {
		return err
	}
	trainPhases(t, g, tr, start, time.Now())
	return nil
}

// trainPhases records one training episode that began at start and was
// serving at end: time to the first generation, each generation, and the
// tail after the last one (the other families' fits and publication), plus
// the candidate-fit counters.
func trainPhases(t *tracer, g *genLog, tr *core.Trainer, start, end time.Time) {
	if t == nil {
		return
	}
	times := g.take()
	if len(times) > 0 {
		t.add(span{Name: "train.first_gen", Start: start, End: times[0]})
		for i := 1; i < len(times); i++ {
			t.add(span{Name: "train.gen", Start: times[i-1], End: times[i]})
		}
		t.add(span{Name: "train.tail", Start: times[len(times)-1], End: end})
	}
	st := tr.FitPathStats()
	t.add(span{Name: "train", Start: start, End: end, N: int64(st.GramFits + st.QRFallbacks)})
	t.count("train.gram_fits", float64(st.GramFits))
	t.count("train.qr_fallbacks", float64(st.QRFallbacks))
	t.count("train.memo_hits", float64(st.EntryHits))
	t.count("train.memo_misses", float64(st.EntryMisses))
}
