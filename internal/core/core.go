// Package core implements the paper's primary contribution: inferred models
// for integrated hardware-software spaces.
//
// It assembles sparse (application shard, architecture) performance profiles
// into regression datasets over the 26 modeled variables (software
// characteristics x1–x13 of Table 1 and hardware parameters y1–y13 of
// Table 2), drives the genetic modeling heuristic with the paper's
// per-application fitness discipline (Section 3.3's pseudocode), predicts
// shard and application performance, and implements the inductive model
// update protocol of Sections 3.2–3.3 for systems perturbed by new software
// or hardware.
package core

import (
	"fmt"
	"runtime"
	"sync"

	"hsmodel/internal/cpu"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/isa"
	"hsmodel/internal/linalg"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
	"hsmodel/internal/trace"
)

// NumVars is the integrated-space variable count: 13 software + 13 hardware.
const NumVars = profile.NumCharacteristics + hwspace.NumParams

// DefaultShardLen is the default shard length in dynamic instructions. The
// paper profiles 10M-instruction shards; 100k is the scaled default so full
// experiments run in minutes, and every harness accepts the paper-scale
// value.
const DefaultShardLen = 100_000

// PaperShardLen is the paper's 10M-instruction shard length.
const PaperShardLen = 10_000_000

// VarNames returns the 26 variable names in dataset order.
func VarNames() []string {
	names := make([]string, 0, NumVars)
	for i := 0; i < profile.NumCharacteristics; i++ {
		names = append(names, fmt.Sprintf("x%d", i+1))
	}
	for i := 0; i < hwspace.NumParams; i++ {
		names = append(names, fmt.Sprintf("y%d", i+1))
	}
	return names
}

// IsSoftwareVar reports whether dataset variable v is a software
// characteristic (vs a hardware parameter).
func IsSoftwareVar(v int) bool { return v < profile.NumCharacteristics }

// Sample is one sparse profile: a shard's portable software characteristics,
// the architecture it ran on, and the measured performance.
type Sample struct {
	App   string
	AppID int
	Shard int
	X     profile.Characteristics
	HW    hwspace.Config
	CPI   float64
}

// Row returns the 26-element raw variable vector of the sample.
func (s Sample) Row() []float64 {
	row := make([]float64, NumVars)
	s.RowInto(row)
	return row
}

// RowInto fills row (length at least NumVars) with the sample's raw variable
// vector: the zero-allocation form of Row for the serving hot path.
//
//hslint:hotpath
func (s Sample) RowInto(row []float64) {
	copy(row, s.X[:])
	hw := s.HW.Vector()
	copy(row[profile.NumCharacteristics:], hw[:])
}

// ToDataset converts samples to a regression dataset with CPI as the
// response and application identity as the row group.
func ToDataset(samples []Sample) *regress.Dataset {
	ds := &regress.Dataset{
		Names: VarNames(),
		X:     nil,
		Y:     make([]float64, len(samples)),
		Group: make([]int, len(samples)),
	}
	ds.X = linalg.NewMatrix(len(samples), NumVars)
	for i, s := range samples {
		copy(ds.X.Row(i), s.Row())
		ds.Y[i] = s.CPI
		ds.Group[i] = s.AppID
	}
	return ds
}

// Collector produces sparse profiles by simulating shards on sampled
// architectures — the stand-in for a datacenter-wide profiler selectively
// profiling hardware-software pairs. It is a plain value: its two fields
// decide what it returns, and it keeps no state between calls.
type Collector struct {
	// ShardLen is the shard length in instructions (DefaultShardLen if 0).
	ShardLen int
	// ShardPool is how many distinct shard indices per application are
	// sampled from (60 if 0). Shards are drawn uniformly from the pool, so
	// every phase of the application timeline is represented.
	ShardPool int
}

func (c Collector) shardLen() int {
	if c.ShardLen <= 0 {
		return DefaultShardLen
	}
	return c.ShardLen
}

func (c Collector) shardPool() int {
	if c.ShardPool <= 0 {
		return 60
	}
	return c.ShardPool
}

// request is one (application, shard, architecture) measurement to take.
type request struct {
	app   *trace.App
	appID int
	shard int
	hw    hwspace.Config
}

// Collect takes samplesPerApp uniform random (shard, architecture) profiles
// for each application. Simulation fans out across GOMAXPROCS workers;
// results are returned in a deterministic order given the seed.
func (c Collector) Collect(apps []*trace.App, samplesPerApp int, seed uint64) []Sample {
	src := rng.New(seed)
	var reqs []request
	for appID, app := range apps {
		appSrc := src.Fork(uint64(appID))
		for k := 0; k < samplesPerApp; k++ {
			reqs = append(reqs, request{
				app:   app,
				appID: appID,
				shard: appSrc.Intn(c.shardPool()),
				hw:    hwspace.FromIndices(hwspace.Sample(appSrc)),
			})
		}
	}
	return c.run(reqs)
}

// CollectPairs measures an explicit list of (app, shard, architecture)
// triples, preserving order.
func (c Collector) CollectPairs(apps []*trace.App, appIDs, shards []int, hws []hwspace.Config) []Sample {
	if len(appIDs) != len(shards) || len(shards) != len(hws) {
		panic("core: CollectPairs length mismatch")
	}
	reqs := make([]request, len(appIDs))
	for i := range appIDs {
		reqs[i] = request{app: apps[appIDs[i]], appID: appIDs[i], shard: shards[i], hw: hws[i]}
	}
	return c.run(reqs)
}

// run measures all requests. Requests are grouped by (application, shard),
// and each group's instruction trace is generated once: profiled for the
// portable characteristics, then replayed on every architecture the group
// asks for — the in-memory analogue of the paper's portable profiles
// (Section 2.2).
func (c Collector) run(reqs []request) []Sample {
	type groupKey struct {
		appID, shard int
	}
	groups := make(map[groupKey][]int)
	var order []groupKey
	for i, r := range reqs {
		k := groupKey{r.appID, r.shard}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}

	out := make([]Sample, len(reqs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, k := range order {
		wg.Add(1)
		sem <- struct{}{}
		go func(idxs []int) {
			defer wg.Done()
			defer func() { <-sem }()
			r := reqs[idxs[0]]
			insts := r.app.ShardTrace(r.shard, c.shardLen())
			x := profile.Stream(&isa.SliceStream{Insts: insts}, r.app.Name, r.shard).X
			for _, i := range idxs {
				req := reqs[i]
				res := cpu.New(req.hw).Run(&isa.SliceStream{Insts: insts})
				out[i] = Sample{
					App:   req.app.Name,
					AppID: req.appID,
					Shard: req.shard,
					X:     x,
					HW:    req.hw,
					CPI:   res.CPI(),
				}
			}
		}(groups[k])
	}
	wg.Wait()
	return out
}
