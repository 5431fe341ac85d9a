package spmv

import "hsmodel/internal/rng"

// This file implements the coordinated-optimization study of Section 5.3 /
// Figure 16: compare tuning the application (block size), the architecture
// (cache configuration), or both, for performance and for energy.

// TuneChoice records one tuning outcome.
type TuneChoice struct {
	R, C   int
	Cfg    CacheConfig
	MFlops float64
	NJFlop float64
}

// TuningResult compares the four strategies for one matrix.
type TuningResult struct {
	Baseline    TuneChoice // 1x1 blocks on the baseline cache
	AppTuned    TuneChoice // best block size, baseline cache
	ArchTuned   TuneChoice // 1x1 blocks, best cache
	Coordinated TuneChoice // best of both
}

// AppSpeedup returns application-tuning speedup over baseline (Figure 16a).
func (t TuningResult) AppSpeedup() float64 { return t.AppTuned.MFlops / t.Baseline.MFlops }

// ArchSpeedup returns architecture-tuning speedup over baseline.
func (t TuningResult) ArchSpeedup() float64 { return t.ArchTuned.MFlops / t.Baseline.MFlops }

// CoordSpeedup returns coordinated-tuning speedup over baseline.
func (t TuningResult) CoordSpeedup() float64 { return t.Coordinated.MFlops / t.Baseline.MFlops }

// TuneOptions controls the search.
type TuneOptions struct {
	// CacheCandidates is how many random cache configurations each
	// architecture search considers. The paper exploits "the tractability
	// of inferred models" for this navigation; Tune can use either
	// exhaustive simulation or a trained model as the oracle.
	CacheCandidates int
	Seed            uint64
	// Model, when non-nil, is a PredictMFlops model that ranks candidates,
	// so only the predicted winner is simulated — the paper's model-guided
	// co-tuning. When nil, candidates are simulated directly.
	Model *DomainModel
	// Study provides fill ratios and simulation.
	Study *Study
}

// Tune runs the four tuning strategies of Figure 16 for the study's matrix.
// Each strategy scans its candidates in a fixed order, baseline first, and
// keeps the first candidate that scores strictly higher than every earlier
// one.
func Tune(opts TuneOptions) TuningResult {
	s := opts.Study
	point := func(r, c int, cfg CacheConfig) Point {
		return Point{R: r, C: c, Fill: s.FillRatio(r, c), Cfg: cfg}
	}
	measure := func(pt Point) TuneChoice {
		res := s.Simulate(pt.R, pt.C, pt.Cfg)
		return TuneChoice{R: pt.R, C: pt.C, Cfg: pt.Cfg, MFlops: res.MFlops(), NJFlop: res.NJPerFlop()}
	}
	// best scores candidates in one batch through the model, or by
	// simulation without one.
	best := func(cands []Point) Point {
		var scores []float64
		if opts.Model != nil {
			scores = opts.Model.Predict(cands)
		} else {
			for _, pt := range cands {
				scores = append(scores, s.Simulate(pt.R, pt.C, pt.Cfg).MFlops())
			}
		}
		k := 0
		for i, sc := range scores {
			if sc > scores[k] {
				k = i
			}
		}
		return cands[k]
	}
	// blocks appends the 64 OSKI variants on cfg to cands.
	blocks := func(cands []Point, cfg CacheConfig) []Point {
		for r := 1; r <= MaxBlockDim; r++ {
			for c := 1; c <= MaxBlockDim; c++ {
				cands = append(cands, point(r, c, cfg))
			}
		}
		return cands
	}

	baseline := point(1, 1, BaselineCache())
	out := TuningResult{Baseline: measure(baseline)}

	// Application tuning: sweep the 64 OSKI variants on the baseline cache.
	out.AppTuned = measure(best(blocks([]Point{baseline}, baseline.Cfg)))

	// Architecture tuning: random cache candidates with 1x1 blocks.
	src := rng.New(opts.Seed ^ 0xa4c4)
	cands := []Point{baseline}
	for k := 0; k < opts.CacheCandidates; k++ {
		cands = append(cands, point(1, 1, SampleCacheConfig(src)))
	}
	out.ArchTuned = measure(best(cands))

	// Coordinated tuning: joint search over block sizes and cache
	// candidates (the same candidate pool, so strategies are comparable).
	src = rng.New(opts.Seed ^ 0xc004d)
	cands = []Point{baseline}
	for k := 0; k < opts.CacheCandidates; k++ {
		cands = blocks(cands, SampleCacheConfig(src))
	}
	out.Coordinated = measure(best(cands))
	return out
}
