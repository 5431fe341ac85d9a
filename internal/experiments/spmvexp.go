package experiments

import (
	"fmt"

	"hsmodel/internal/regress"
	"hsmodel/internal/spmv"
	"hsmodel/internal/stats"
)

// spmvStudy builds (or rebuilds) a scaled study for a Table 4 matrix.
func (w *Workspace) spmvStudy(name string) (*spmv.Study, error) {
	spec, err := spmv.ByName(name)
	if err != nil {
		return nil, err
	}
	return spmv.NewStudy(spec.Scaled(w.Cfg.SpmvScale)), nil
}

// ---------------------------------------------------------------------------
// Figure 12: SpMV blocking parameters vs performance (raefsky3).

// Fig12Result reports mean Mflop/s by block row and block column over the
// sampled space, plus fill ratios.
type Fig12Result struct {
	Matrix    string
	ByRow     [spmv.MaxBlockDim]float64 // mean Mflop/s for brow = i+1
	ByCol     [spmv.MaxBlockDim]float64 // mean Mflop/s for bcol = i+1
	FillByRow [spmv.MaxBlockDim]float64 // fill at (i+1) x 1
	FillByCol [spmv.MaxBlockDim]float64 // fill at 8 x (i+1)
	BestRow   int
	BestCol   int
}

// Fig12 draws the paper's 400 samples from the integrated SpMV-cache space
// for raefsky3 and averages performance at each parameter value.
func Fig12(w *Workspace) (Fig12Result, error) {
	s, err := w.spmvStudy("raefsky3")
	if err != nil {
		return Fig12Result{}, err
	}
	pts := s.Sample(w.Cfg.SpmvTrain, w.Cfg.Seed^0xF12)
	res := Fig12Result{Matrix: s.Spec.Name}
	var rowN, colN [spmv.MaxBlockDim]int
	for _, pt := range pts {
		res.ByRow[pt.R-1] += pt.MFlops
		rowN[pt.R-1]++
		res.ByCol[pt.C-1] += pt.MFlops
		colN[pt.C-1]++
	}
	for i := 0; i < spmv.MaxBlockDim; i++ {
		if rowN[i] > 0 {
			res.ByRow[i] /= float64(rowN[i])
		}
		if colN[i] > 0 {
			res.ByCol[i] /= float64(colN[i])
		}
		res.FillByRow[i] = s.FillRatio(i+1, 1)
		res.FillByCol[i] = s.FillRatio(8, i+1)
		if res.ByRow[i] > res.ByRow[res.BestRow] {
			res.BestRow = i
		}
		if res.ByCol[i] > res.ByCol[res.BestCol] {
			res.BestCol = i
		}
	}
	res.BestRow++
	res.BestCol++

	out := w.Cfg.out()
	fmt.Fprintf(out, "Figure 12 — %s blocking vs performance (%d samples)\n", res.Matrix, len(pts))
	fmt.Fprintf(out, "  brow:")
	for i, v := range res.ByRow {
		fmt.Fprintf(out, " %d:%.0fMF(f%.2f)", i+1, v, res.FillByRow[i])
	}
	fmt.Fprintf(out, "\n  bcol:")
	for i, v := range res.ByCol {
		fmt.Fprintf(out, " %d:%.0fMF(f%.2f)", i+1, v, res.FillByCol[i])
	}
	fmt.Fprintf(out, "\n  best brow=%d, best bcol=%d (paper: 8 block rows maximize; cols 1,4,8 equally effective)\n",
		res.BestRow, res.BestCol)
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 13: cache architecture vs performance (raefsky3).

// Fig13Result reports mean Mflop/s by cache parameter level.
type Fig13Result struct {
	Matrix   string
	ByLine   map[int]float64 // line size -> mean Mflop/s
	ByDSize  map[int]float64 // d-cache bytes -> mean Mflop/s
	ByDWays  map[int]float64 // associativity -> mean Mflop/s
	LineGain float64         // mean at 128B / mean at 16B
}

// Fig13 averages the same sampled space by hardware parameter.
func Fig13(w *Workspace) (Fig13Result, error) {
	s, err := w.spmvStudy("raefsky3")
	if err != nil {
		return Fig13Result{}, err
	}
	pts := s.Sample(w.Cfg.SpmvTrain, w.Cfg.Seed^0xF13)
	res := Fig13Result{
		Matrix: s.Spec.Name,
		ByLine: map[int]float64{}, ByDSize: map[int]float64{}, ByDWays: map[int]float64{},
	}
	nLine, nSize, nWays := map[int]int{}, map[int]int{}, map[int]int{}
	for _, pt := range pts {
		res.ByLine[pt.Cfg.LineBytes] += pt.MFlops
		nLine[pt.Cfg.LineBytes]++
		res.ByDSize[pt.Cfg.DSizeBytes] += pt.MFlops
		nSize[pt.Cfg.DSizeBytes]++
		res.ByDWays[pt.Cfg.DWays] += pt.MFlops
		nWays[pt.Cfg.DWays]++
	}
	for k := range res.ByLine {
		res.ByLine[k] /= float64(nLine[k])
	}
	for k := range res.ByDSize {
		res.ByDSize[k] /= float64(nSize[k])
	}
	for k := range res.ByDWays {
		res.ByDWays[k] /= float64(nWays[k])
	}
	if res.ByLine[16] > 0 {
		res.LineGain = res.ByLine[128] / res.ByLine[16]
	}

	out := w.Cfg.out()
	fmt.Fprintf(out, "Figure 13 — %s cache architecture vs performance\n", res.Matrix)
	fmt.Fprintf(out, "  line size:")
	for _, k := range []int{16, 32, 64, 128} {
		fmt.Fprintf(out, " %dB:%.0fMF", k, res.ByLine[k])
	}
	fmt.Fprintf(out, " (gain 16->128: %.1fx)\n  d-size:", res.LineGain)
	for _, k := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		fmt.Fprintf(out, " %dK:%.0fMF", k/1024, res.ByDSize[k])
	}
	fmt.Fprintf(out, "\n  d-ways:")
	for _, k := range []int{1, 2, 4, 8} {
		fmt.Fprintf(out, " %d:%.0fMF", k, res.ByDWays[k])
	}
	fmt.Fprintln(out)
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 14: per-matrix performance and power model accuracy.

// Fig14Row is one matrix's accuracy.
type Fig14Row struct {
	Index       int
	Matrix      string
	Perf, Power regress.Metrics
}

// Fig14Result reports accuracy for all Table 4 matrices.
type Fig14Result struct {
	Rows []Fig14Row
	// MedianPerfErr and MedianPowerErr summarize across matrices (paper:
	// 4-6% median errors).
	MedianPerfErr, MedianPowerErr float64
}

// Fig14 trains and validates domain models for every matrix.
func Fig14(w *Workspace) (Fig14Result, error) {
	cfg := w.Cfg
	var res Fig14Result
	var perfErrs, powerErrs []float64
	out := cfg.out()
	fmt.Fprintf(out, "Figure 14 — SpMV model accuracy (%d train / %d validation per matrix)\n",
		cfg.SpmvTrain, cfg.SpmvValidation)
	for _, spec := range spmv.Corpus() {
		s := spmv.NewStudy(spec.Scaled(cfg.SpmvScale))
		train := s.Sample(cfg.SpmvTrain, cfg.Seed^uint64(0x140+spec.Index))
		valid := s.Sample(cfg.SpmvValidation, cfg.Seed^uint64(0x1400+spec.Index))
		search := cfg.searchParams(uint64(0x14AA + spec.Index))
		perf, err := spmv.TrainDomainModel(w.ctx, spec.Name, train, spmv.PredictMFlops, search)
		if err != nil {
			return res, fmt.Errorf("fig14 %s: %w", spec.Name, err)
		}
		power, err := spmv.TrainDomainModel(w.ctx, spec.Name, train, spmv.PredictWatts, search)
		if err != nil {
			return res, fmt.Errorf("fig14 %s: %w", spec.Name, err)
		}
		row := Fig14Row{
			Index:  spec.Index,
			Matrix: spec.Name,
			Perf:   spmv.EvaluateDomainModel(perf, valid),
			Power:  spmv.EvaluateDomainModel(power, valid),
		}
		res.Rows = append(res.Rows, row)
		perfErrs = append(perfErrs, row.Perf.MedAPE)
		powerErrs = append(powerErrs, row.Power.MedAPE)
		fmt.Fprintf(out, "  %2d %-10s perf %.1f%% (rho %.3f) | power %.1f%% (rho %.3f)\n",
			row.Index, spec.Name, 100*row.Perf.MedAPE, row.Perf.Pearson,
			100*row.Power.MedAPE, row.Power.Pearson)
	}
	res.MedianPerfErr = stats.Median(perfErrs)
	res.MedianPowerErr = stats.Median(powerErrs)
	fmt.Fprintf(out, "  across matrices: perf median %.1f%%, power median %.1f%% (paper: 4-6%%)\n",
		100*res.MedianPerfErr, 100*res.MedianPowerErr)
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 15: profiled vs predicted performance topology (nasasrb).

// Fig15Result holds the two 8x8 speedup grids.
type Fig15Result struct {
	Matrix    string
	Profiled  [spmv.MaxBlockDim][spmv.MaxBlockDim]float64
	Predicted [spmv.MaxBlockDim][spmv.MaxBlockDim]float64
	// PeakAgreement reports whether the predicted argmax block size matches
	// the profiled argmax up to ties within 5%.
	PeakAgreement bool
	// Correlation between the 64 profiled and predicted cells.
	Correlation float64
}

// Fig15 exhaustively profiles nasasrb's 64 variants on the baseline cache,
// trains a model on sparse samples, and compares topologies.
func Fig15(w *Workspace) (Fig15Result, error) {
	cfg := w.Cfg
	s, err := w.spmvStudy("nasasrb")
	if err != nil {
		return Fig15Result{}, err
	}
	res := Fig15Result{Matrix: s.Spec.Name}
	base := spmv.BaselineCache()
	base1 := s.Simulate(1, 1, base).MFlops()

	train := s.Sample(cfg.SpmvTrain, cfg.Seed^0xF15)
	perf, err := spmv.TrainDomainModel(w.ctx, s.Spec.Name, train, spmv.PredictMFlops, cfg.searchParams(0xF15A))
	if err != nil {
		return res, err
	}

	// The 64 cells in row-major order, predicted in one batch.
	var cells []spmv.Point
	for r := 1; r <= spmv.MaxBlockDim; r++ {
		for c := 1; c <= spmv.MaxBlockDim; c++ {
			cells = append(cells, spmv.Point{R: r, C: c, Fill: s.FillRatio(r, c), Cfg: base})
		}
	}
	predicted := perf.Predict(cells)
	var flat, flatPred []float64
	bestProf, bestPred := [2]int{1, 1}, [2]int{1, 1}
	for i, cell := range cells {
		r, c := cell.R, cell.C
		prof := s.Simulate(r, c, base).MFlops() / base1
		pred := predicted[i] / base1
		res.Profiled[r-1][c-1] = prof
		res.Predicted[r-1][c-1] = pred
		flat = append(flat, prof)
		flatPred = append(flatPred, pred)
		if prof > res.Profiled[bestProf[0]-1][bestProf[1]-1] {
			bestProf = [2]int{r, c}
		}
		if pred > res.Predicted[bestPred[0]-1][bestPred[1]-1] {
			bestPred = [2]int{r, c}
		}
	}
	res.Correlation = stats.Pearson(flat, flatPred)
	// Agreement: the profiled speedup at the predicted peak is within 5% of
	// the true peak.
	res.PeakAgreement = res.Profiled[bestPred[0]-1][bestPred[1]-1] >=
		0.95*res.Profiled[bestProf[0]-1][bestProf[1]-1]

	out := cfg.out()
	fmt.Fprintf(out, "Figure 15 — %s performance topology (speedup over 1x1)\n", res.Matrix)
	printGrid := func(label string, g [spmv.MaxBlockDim][spmv.MaxBlockDim]float64) {
		fmt.Fprintf(out, "  %s:\n", label)
		for r := 0; r < spmv.MaxBlockDim; r++ {
			fmt.Fprintf(out, "   ")
			for c := 0; c < spmv.MaxBlockDim; c++ {
				fmt.Fprintf(out, " %5.2f", g[r][c])
			}
			fmt.Fprintln(out)
		}
	}
	printGrid("profiled", res.Profiled)
	printGrid("predicted", res.Predicted)
	fmt.Fprintf(out, "  profiled peak %dx%d, predicted peak %dx%d, cell correlation %.3f, peak agreement %v\n",
		bestProf[0], bestProf[1], bestPred[0], bestPred[1], res.Correlation, res.PeakAgreement)
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 16: coordinated optimization across the corpus.

// Fig16Row is one matrix's tuning outcome.
type Fig16Row struct {
	Index  int
	Matrix string
	spmv.TuningResult
}

// Fig16Result aggregates tuning across Table 4.
type Fig16Result struct {
	Rows []Fig16Row
	// Mean speedups across matrices (paper: app 1.6x, arch 2.7x, coordinated 5.0x).
	MeanApp, MeanArch, MeanCoord float64
	// Energy per flop, averaged (paper: 17 baseline, 11 app-tuned, 25
	// arch-tuned; coordinated 0.9x of baseline).
	MeanBaseNJ, MeanAppNJ, MeanArchNJ, MeanCoordNJ float64
}

// Fig16 runs the four tuning strategies for every matrix, using inferred
// models as the search oracle (the paper's tractability argument) and
// simulation only to confirm chosen points.
func Fig16(w *Workspace) (Fig16Result, error) {
	cfg := w.Cfg
	var res Fig16Result
	out := cfg.out()
	fmt.Fprintf(out, "Figure 16 — coordinated optimization (model-guided)\n")
	for _, spec := range spmv.Corpus() {
		s := spmv.NewStudy(spec.Scaled(cfg.SpmvScale))
		train := s.Sample(cfg.SpmvTrain/2, cfg.Seed^uint64(0x160+spec.Index))
		perf, err := spmv.TrainDomainModel(w.ctx, spec.Name, train, spmv.PredictMFlops, cfg.searchParams(uint64(0x16AA+spec.Index)))
		if err != nil {
			return res, err
		}
		tr := spmv.Tune(spmv.TuneOptions{
			Study:           s,
			Model:           perf,
			CacheCandidates: 150,
			Seed:            cfg.Seed ^ uint64(spec.Index),
		})
		row := Fig16Row{Index: spec.Index, Matrix: spec.Name, TuningResult: tr}
		res.Rows = append(res.Rows, row)
		res.MeanApp += tr.AppSpeedup()
		res.MeanArch += tr.ArchSpeedup()
		res.MeanCoord += tr.CoordSpeedup()
		res.MeanBaseNJ += tr.Baseline.NJFlop
		res.MeanAppNJ += tr.AppTuned.NJFlop
		res.MeanArchNJ += tr.ArchTuned.NJFlop
		res.MeanCoordNJ += tr.Coordinated.NJFlop
		fmt.Fprintf(out, "  %2d %-10s app %.2fx (%4.1f nJ/F) arch %.2fx (%4.1f) coord %.2fx (%4.1f) [base %.0fMF %4.1f nJ/F, best block %dx%d]\n",
			spec.Index, spec.Name,
			tr.AppSpeedup(), tr.AppTuned.NJFlop,
			tr.ArchSpeedup(), tr.ArchTuned.NJFlop,
			tr.CoordSpeedup(), tr.Coordinated.NJFlop,
			tr.Baseline.MFlops, tr.Baseline.NJFlop,
			tr.Coordinated.R, tr.Coordinated.C)
	}
	n := float64(len(res.Rows))
	res.MeanApp /= n
	res.MeanArch /= n
	res.MeanCoord /= n
	res.MeanBaseNJ /= n
	res.MeanAppNJ /= n
	res.MeanArchNJ /= n
	res.MeanCoordNJ /= n
	fmt.Fprintf(out, "  means: app %.2fx arch %.2fx coord %.2fx (paper: 1.6x / 2.7x / 5.0x)\n",
		res.MeanApp, res.MeanArch, res.MeanCoord)
	fmt.Fprintf(out, "  energy nJ/Flop: base %.1f app %.1f arch %.1f coord %.1f (paper: 17 / 11 / 25 / ~15)\n",
		res.MeanBaseNJ, res.MeanAppNJ, res.MeanArchNJ, res.MeanCoordNJ)
	return res, nil
}
