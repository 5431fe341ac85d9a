// Package hsmodel's root benchmark suite regenerates every table and figure
// of the paper (one benchmark per experiment; see DESIGN.md §4 for the
// index) plus microbenchmarks of the substrate layers. Headline numbers are
// attached to each benchmark via ReportMetric:
//
//	go test -bench=. -benchmem
//
// Benchmarks share one Workspace (profiles are collected and the
// steady-state model trained once), so per-benchmark times reflect the
// experiment itself, not data collection.
package hsmodel

import (
	"io"
	"sync"
	"testing"

	"hsmodel/internal/core"
	"hsmodel/internal/experiments"
	"hsmodel/internal/linalg"
	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
	"hsmodel/internal/spmv"
)

var (
	wsOnce sync.Once
	ws     *experiments.Workspace
)

// workspace returns the shared, silently-reporting experiment workspace.
func workspace() *experiments.Workspace {
	wsOnce.Do(func() {
		cfg := experiments.Quick()
		cfg.Out = io.Discard
		ws = experiments.NewWorkspace(cfg)
	})
	return ws
}

// --- paper experiments -----------------------------------------------------

func BenchmarkFig3VarianceStabilization(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(w)
		b.ReportMetric(res.SkewBefore, "skew-before")
		b.ReportMetric(res.SkewAfter, "skew-after")
		b.ReportMetric(1/res.Power, "power-denominator")
	}
}

func BenchmarkFig5Convergence(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.SearchAnatomy(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.History[0], "gen0-sum-med-err")
		b.ReportMetric(res.History[len(res.History)-1], "final-sum-med-err")
	}
}

func BenchmarkFig4InteractionFrequency(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.SearchAnatomy(w)
		if err != nil {
			b.Fatal(err)
		}
		swsw, swhw, hwhw := res.RegionCounts()
		b.ReportMetric(float64(swsw), "swsw-interactions")
		b.ReportMetric(float64(swhw), "swhw-interactions")
		b.ReportMetric(float64(hwhw), "hwhw-interactions")
	}
}

func BenchmarkTable3Transformations(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.SearchAnatomy(w)
		if err != nil {
			b.Fatal(err)
		}
		excluded := 0
		for _, c := range res.Consensus {
			if c == regress.Excluded {
				excluded++
			}
		}
		b.ReportMetric(float64(excluded), "excluded-vars")
	}
}

func BenchmarkFig7aInterpolation(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7a(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Metrics.MedAPE, "medAPE-%")
		b.ReportMetric(res.Metrics.Pearson, "rho")
	}
}

func BenchmarkFig10ShardExtrapolation(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Overall.Errors.Median, "medAPE-%")
		b.ReportMetric(res.Overall.Metrics.Spearman, "spearman")
	}
}

func BenchmarkFig7bVariantExtrapolation(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7b(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Accuracy.Metrics.MedAPE, "medAPE-%")
		b.ReportMetric(res.Accuracy.Metrics.Pearson, "rho")
		b.ReportMetric(100*res.OptEffectMean, "opt-effect-mean-%")
	}
}

func BenchmarkFig7cNewAppExtrapolation(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7c(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Overall.Metrics.MedAPE, "medAPE-%")
		b.ReportMetric(res.Overall.Metrics.Pearson, "rho")
		b.ReportMetric(float64(res.Updated), "updates-triggered")
	}
}

func BenchmarkFig9OutlierAnalysis(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9(w)
		b.ReportMetric(res.MaxAbsDelta("bwaves"), "bwaves-max-delta")
		b.ReportMetric(res.MaxAbsDelta("sjeng"), "sjeng-max-delta")
		b.ReportMetric(float64(res.BwavesModes), "bwaves-cpi-modes")
	}
}

func BenchmarkGeneticParallelSpeedup(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res := experiments.ParTime(w, []int{1, 4})
		b.ReportMetric(res.Speedup, "speedup")
	}
}

func BenchmarkProfilingCostReduction(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Costs(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Reduction, "reduction-x")
		b.ReportMetric(res.ExtrapolationReduction, "extrapolation-reduction-x")
	}
}

func BenchmarkManualVsAutomated(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Manual(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Improvement, "improvement-%")
	}
}

func BenchmarkFig12BlockingTopology(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.BestRow), "best-brow")
		b.ReportMetric(res.ByRow[7]/res.ByRow[0], "brow8-vs-1")
	}
}

func BenchmarkFig13CacheTrends(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LineGain, "line-16-to-128-gain")
	}
}

func BenchmarkFig14SpmvAccuracy(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.MedianPerfErr, "perf-medAPE-%")
		b.ReportMetric(100*res.MedianPowerErr, "power-medAPE-%")
	}
}

func BenchmarkFig15Topology(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Correlation, "cell-correlation")
	}
}

func BenchmarkFig16CoordinatedTuning(b *testing.B) {
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanApp, "app-speedup")
		b.ReportMetric(res.MeanArch, "arch-speedup")
		b.ReportMetric(res.MeanCoord, "coord-speedup")
		b.ReportMetric(res.MeanCoordNJ/res.MeanBaseNJ, "coord-energy-ratio")
	}
}

// --- ablations ---------------------------------------------------------------

func benchAblation(b *testing.B, f func(*experiments.Workspace) (experiments.AblationResult, error)) {
	b.Helper()
	w := workspace()
	for i := 0; i < b.N; i++ {
		res, err := f(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Benefit(), "benefit-x")
	}
}

func BenchmarkAblationVarianceStabilization(b *testing.B) {
	benchAblation(b, experiments.AblationStabilization)
}

func BenchmarkAblationInteractions(b *testing.B) {
	benchAblation(b, experiments.AblationInteractions)
}

func BenchmarkAblationSharding(b *testing.B) {
	benchAblation(b, experiments.AblationSharding)
}

func BenchmarkAblationStepwise(b *testing.B) {
	benchAblation(b, experiments.AblationStepwise)
}

func BenchmarkAblationDomainSpecific(b *testing.B) {
	benchAblation(b, experiments.AblationDomainSpecific)
}

func BenchmarkAblationLogResponse(b *testing.B) {
	benchAblation(b, experiments.AblationLogResponse)
}

// --- substrate microbenchmarks ----------------------------------------------

func BenchmarkRegressionFit(b *testing.B) {
	w := workspace()
	fz, err := regress.NewFeaturizer(core.ToDataset(w.TrainingSamples()), true)
	if err != nil {
		b.Fatal(err)
	}
	spec := regress.Spec{Codes: make([]regress.TransformCode, core.NumVars)}
	for v := range spec.Codes {
		spec.Codes[v] = regress.Quadratic
	}
	spec.Interactions = []regress.Interaction{{I: 6, J: 17}, {I: 13, J: 14}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fz.Fit(spec, regress.Options{LogResponse: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeaturizerCache measures the featurize layer: assembling design
// matrices for a stream of varied specifications from cached basis columns,
// as every QR fit does. The specs are generated deterministically.
func BenchmarkFeaturizerCache(b *testing.B) {
	w := workspace()
	ds := core.ToDataset(w.TrainingSamples())
	specs := make([]regress.Spec, 32)
	src := rng.New(7)
	codes := []regress.TransformCode{
		regress.Excluded, regress.Linear, regress.Quadratic, regress.Cubic, regress.Spline3,
	}
	for s := range specs {
		specs[s].Codes = make([]regress.TransformCode, core.NumVars)
		for v := range specs[s].Codes {
			specs[s].Codes[v] = codes[int(src.Uint64()%uint64(len(codes)))]
		}
		i := int(src.Uint64() % core.NumVars)
		j := int(src.Uint64() % core.NumVars)
		if i != j {
			specs[s].Interactions = []regress.Interaction{{I: min(i, j), J: max(i, j)}}
		}
	}

	b.Run("cached", func(b *testing.B) {
		fz, err := regress.NewFeaturizer(ds, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fz.Design(specs[i%len(specs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// gramBenchData synthesizes a GA-scale dataset shaped like the real modeling
// problem: 26 variables of which the first 13 take discrete "hardware" levels
// and the rest are continuous profile characteristics, with evaluator-style
// weights (train rows 2, held-out rows 0) and a strictly positive response.
func gramBenchData(n int) (*regress.Dataset, []float64) {
	src := rng.New(42)
	const p = core.NumVars
	ds := &regress.Dataset{
		Names: make([]string, p),
		X:     linalg.NewMatrix(n, p),
		Y:     make([]float64, n),
	}
	for v := 0; v < p; v++ {
		ds.Names[v] = "v" + string(rune('a'+v%26))
	}
	for i := 0; i < n; i++ {
		row := ds.X.Row(i)
		for v := range row {
			if v < 13 {
				row[v] = float64(1 + src.Intn(8))
			} else {
				row[v] = 0.2 + 3*src.Float64()
			}
		}
		y := 1.0
		for v, x := range row {
			y += 0.05 * float64(v%5) * x
		}
		ds.Y[i] = y * (0.9 + 0.2*src.Float64())
	}
	w := make([]float64, n)
	for i := range w {
		if src.Float64() < 0.7 {
			w[i] = 2
		}
	}
	return ds, w
}

// gramBenchSpecs draws a GA-like candidate population.
func gramBenchSpecs(count, vars int, seed uint64) []regress.Spec {
	src := rng.New(seed)
	specs := make([]regress.Spec, count)
	for s := range specs {
		specs[s].Codes = make([]regress.TransformCode, vars)
		for v := range specs[s].Codes {
			specs[s].Codes[v] = regress.TransformCode(src.Uint64() % uint64(regress.NumTransformCodes))
		}
		for k := int(src.Uint64() % 4); k > 0; k-- {
			i, j := int(src.Uint64()%uint64(vars)), int(src.Uint64()%uint64(vars))
			if i != j {
				specs[s].Interactions = append(specs[s].Interactions,
					regress.Interaction{I: i, J: j}.Canon())
			}
		}
	}
	return specs
}

// BenchmarkGramFitParity fits one candidate per iteration on both the
// Gram/Cholesky path and the pivoted-QR path, reporting the worst coefficient
// divergence observed (the 1e-8 contract) and the share of fits the Gram path
// served directly.
func BenchmarkGramFitParity(b *testing.B) {
	ds, weights := gramBenchData(1200)
	fz, err := regress.NewFeaturizer(ds, true)
	if err != nil {
		b.Fatal(err)
	}
	opts := regress.Options{LogResponse: true, Weights: weights}
	gc, err := regress.NewGramCache(fz, opts)
	if err != nil {
		b.Fatal(err)
	}
	specs := gramBenchSpecs(32, core.NumVars, 17)
	maxDiff := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := specs[i%len(specs)]
		gm, gerr := gc.Fit(spec)
		qm, qerr := fz.Fit(spec, opts)
		if (gerr == nil) != (qerr == nil) {
			b.Fatalf("path disagreement: gram %v, qr %v", gerr, qerr)
		}
		if gerr != nil {
			continue
		}
		for j := range gm.Coef {
			d := gm.Coef[j] - qm.Coef[j]
			if d < 0 {
				d = -d
			}
			rel := d / (1 + absf(qm.Coef[j]))
			if rel > maxDiff && zeros(gm.Coef) == zeros(qm.Coef) {
				maxDiff = rel
			}
		}
	}
	b.StopTimer()
	s := gc.Stats()
	b.ReportMetric(maxDiff, "max-coef-reldiff")
	if total := s.GramFits + s.QRFallbacks; total > 0 {
		b.ReportMetric(float64(s.GramFits)/float64(total), "gram-share")
	}
}

// zeros counts the coefficients that are exactly 0: the columns a fit
// eliminated as collinear.
func zeros(coef []float64) int {
	n := 0
	for _, c := range coef {
		if c == 0 {
			n++
		}
	}
	return n
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// BenchmarkGenerationFitness measures the tentpole speedup: one genetic
// generation's worth of candidate fits (32 specs, 1200 rows, 26 variables)
// on the PR 2 featurizer-only QR path versus the Gram-cache path with warm
// cross-products — the steady state of every generation after the first.
func BenchmarkGenerationFitness(b *testing.B) {
	ds, weights := gramBenchData(1200)
	fz, err := regress.NewFeaturizer(ds, true)
	if err != nil {
		b.Fatal(err)
	}
	opts := regress.Options{LogResponse: true, Weights: weights}
	specs := gramBenchSpecs(32, core.NumVars, 17)

	b.Run("featurizer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, spec := range specs {
				if _, err := fz.Fit(spec, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("gram", func(b *testing.B) {
		gc, err := regress.NewGramCache(fz, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, spec := range specs { // warm the cross-product memo
			if _, err := gc.Fit(spec); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, spec := range specs {
				if _, err := gc.Fit(spec); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		s := gc.Stats()
		if total := s.GramFits + s.QRFallbacks; total > 0 {
			b.ReportMetric(float64(s.GramFits)/float64(total), "gram-share")
		}
	})
}

// BenchmarkModelPredict measures the spline family's regression predict,
// the serving hot path's kernel, on a batch of one row and on a batch of
// every validation row, with allocation accounting. The regression is the
// workspace search's best specification refitted on the training rows, as
// the spline family fits its winner. One warm-up call grows the caller-owned
// scratch to its high-water mark; after that every prediction must report 0
// allocs/op.
func BenchmarkModelPredict(b *testing.B) {
	w := workspace()
	m, err := w.Model()
	if err != nil {
		b.Fatal(err)
	}
	fz, err := regress.NewFeaturizer(core.ToDataset(w.TrainingSamples()), true)
	if err != nil {
		b.Fatal(err)
	}
	model, err := fz.Fit(m.Population()[0].Spec, regress.Options{LogResponse: true})
	if err != nil {
		b.Fatal(err)
	}
	samples := w.ValidationSamples()
	rows := make([][]float64, len(samples))
	for i, s := range samples {
		rows[i] = s.Row()
	}

	b.Run("one-row", func(b *testing.B) {
		var scratch regress.PredictScratch
		var out [1]float64
		model.PredictBatchWith(&scratch, rows[:1], out[:])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(rows)
			model.PredictBatchWith(&scratch, rows[k:k+1], out[:])
		}
	})
	b.Run("batch", func(b *testing.B) {
		var scratch regress.PredictScratch
		out := make([]float64, len(rows))
		model.PredictBatchWith(&scratch, rows, out)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			model.PredictBatchWith(&scratch, rows, out)
		}
		b.ReportMetric(float64(len(rows)), "preds/op")
	})
}

func BenchmarkQRFactorization(b *testing.B) {
	src := rng.New(1)
	a := linalg.NewMatrix(500, 40)
	for i := range a.Data {
		a.Data[i] = src.Float64()
	}
	// Factor overwrites its input, so each iteration factors a fresh copy.
	work := linalg.NewMatrix(a.Rows, a.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.Data, a.Data)
		linalg.Factor(work)
	}
}

func BenchmarkSpMVKernelSimulation(b *testing.B) {
	spec, err := spmv.ByName("nasasrb")
	if err != nil {
		b.Fatal(err)
	}
	study := spmv.NewStudy(spec.Scaled(32))
	cfg := spmv.BaselineCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study.Simulate(3, 3, cfg)
	}
}

func BenchmarkBCSRConversion(b *testing.B) {
	spec, err := spmv.ByName("crystk02")
	if err != nil {
		b.Fatal(err)
	}
	m := spec.Scaled(32).Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmv.ToBCSR(m, 3, 3)
	}
}
