package experiments

import (
	"fmt"

	"hsmodel/internal/core"
	"hsmodel/internal/genetic"
	"hsmodel/internal/isa"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
	"hsmodel/internal/stats"
)

// ---------------------------------------------------------------------------
// Figure 3: variance stabilization of the 256B sum-of-reuse-distances.

// Fig3Result reports the long-tail characteristic before and after the
// ladder-of-powers transform.
type Fig3Result struct {
	Power         float64 // chosen exponent (the paper picks 1/5)
	SkewBefore    float64
	SkewAfter     float64
	HistBefore    stats.Histogram
	HistAfter     stats.Histogram
	TailRatio     float64 // p99 / median before transform: the "order of magnitude" outliers
	SamplesShards int
}

// Fig3 profiles shards of every application and stabilizes the 256B-block
// sum-of-reuse-distances characteristic.
func Fig3(w *Workspace) Fig3Result {
	cfg := w.Cfg
	var sums []float64
	for _, app := range w.Apps() {
		app := app
		profs := profile.StreamShards(app.Name, profile.ShardRange(cfg.ShardPool), func(s int) []isa.Inst {
			return app.ShardTrace(s, cfg.ShardLen)
		})
		for _, p := range profs {
			sums = append(sums, p.SumReuse256)
		}
	}
	res := Fig3Result{
		SkewBefore:    stats.Skewness(sums),
		HistBefore:    stats.NewHistogram(sums, 20),
		Power:         stats.ChoosePower(sums),
		SamplesShards: len(sums),
	}
	qs := stats.Quantiles(sums, 0.5, 0.99)
	if qs[0] > 0 {
		res.TailRatio = qs[1] / qs[0]
	}
	transformed := append([]float64(nil), sums...)
	stats.ApplyPower(transformed, res.Power)
	res.SkewAfter = stats.Skewness(transformed)
	res.HistAfter = stats.NewHistogram(transformed, 20)

	out := cfg.out()
	fmt.Fprintf(out, "Figure 3 — variance stabilization (%d shards)\n", len(sums))
	fmt.Fprintf(out, "  chosen power: x^%.3g (paper: x^(1/5))\n", res.Power)
	fmt.Fprintf(out, "  skewness: %.2f -> %.2f\n", res.SkewBefore, res.SkewAfter)
	fmt.Fprintf(out, "  p99/median tail ratio before transform: %.1fx\n", res.TailRatio)
	printHistogramTo(out, "  raw", res.HistBefore)
	printHistogramTo(out, "  transformed", res.HistAfter)
	return res
}

// ---------------------------------------------------------------------------
// Figure 5 (convergence), Figure 4 (interaction frequency), Table 3
// (transformations) — all read out of one genetic search.

// SearchAnatomyResult bundles the three readouts of the converged search.
type SearchAnatomyResult struct {
	// History is the per-generation sum of per-application median errors
	// (Figure 5's y-axis).
	History []float64
	// InteractionFreq[i][j] counts pairwise interactions among the 50 best
	// models (Figure 4).
	InteractionFreq [][]int
	// Consensus is the per-variable transformation among the best models
	// (Table 3).
	Consensus []regress.TransformCode
	// Best is the converged fitness (mean per-app median error).
	Best float64
}

// SearchAnatomy trains the workspace model and dissects the search.
func SearchAnatomy(w *Workspace) (SearchAnatomyResult, error) {
	m, err := w.Model()
	if err != nil {
		return SearchAnatomyResult{}, err
	}
	apps := float64(len(w.Apps()))
	var res SearchAnatomyResult
	for _, gs := range m.Report().History {
		res.History = append(res.History, gs.Best*apps)
	}
	top := m.Population()
	if len(top) > 50 {
		top = top[:50]
	}
	res.InteractionFreq = genetic.InteractionFrequency(top, core.NumVars)
	res.Consensus = genetic.TransformConsensus(top, core.NumVars)
	res.Best = m.Population()[0].Fitness

	out := w.Cfg.out()
	fmt.Fprintf(out, "Figure 5 — genetic search convergence (sum of per-app median errors)\n")
	for g, v := range res.History {
		fmt.Fprintf(out, "  gen %2d: %.4f\n", g, v)
	}
	fmt.Fprintf(out, "Table 3 — transformations after %d generations\n", len(res.History))
	names := core.VarNames()
	byCode := map[regress.TransformCode][]string{}
	for v, c := range res.Consensus {
		byCode[c] = append(byCode[c], names[v])
	}
	for _, c := range []regress.TransformCode{
		regress.Excluded, regress.Linear, regress.Quadratic, regress.Cubic, regress.Spline3,
	} {
		fmt.Fprintf(out, "  %-10s %v\n", c, byCode[c])
	}
	fmt.Fprintf(out, "Figure 4 — interaction frequency in the %d best models\n", len(top))
	printInteractionRegions(out, res.InteractionFreq)
	return res, nil
}

// RegionCounts sums interaction frequency by region: software-software,
// software-hardware, hardware-hardware (the three regions of Figure 4).
func (r SearchAnatomyResult) RegionCounts() (swsw, swhw, hwhw int) {
	for i := 0; i < core.NumVars; i++ {
		for j := i + 1; j < core.NumVars; j++ {
			n := r.InteractionFreq[i][j]
			switch {
			case core.IsSoftwareVar(i) && core.IsSoftwareVar(j):
				swsw += n
			case !core.IsSoftwareVar(i) && !core.IsSoftwareVar(j):
				hwhw += n
			default:
				swhw += n
			}
		}
	}
	return
}

// ---------------------------------------------------------------------------
// Figures 7(a) and 8(a): steady-state interpolation.

// AccuracyResult reports one accuracy study the way Figures 7/8 do: an
// error distribution plus predicted-vs-true correlation.
type AccuracyResult struct {
	Name    string
	Errors  stats.BoxplotSummary
	Metrics regress.Metrics
	PerApp  map[string]float64 // per-application median error
}

// Fig7a validates the steady-state model on held-out pairs.
func Fig7a(w *Workspace) (AccuracyResult, error) {
	m, err := w.Model()
	if err != nil {
		return AccuracyResult{}, err
	}
	valid := w.ValidationSamples()
	pred, truth, err := m.Snapshot().PredictSamples(valid)
	if err != nil {
		return AccuracyResult{}, err
	}
	res := accuracy("interpolation", pred, truth)
	res.PerApp = perAppMedians(pred, truth, valid)
	printAccuracy(w.Cfg.out(), "Figure 7(a)/8(a) — steady-state interpolation", res)
	return res, nil
}

// accuracy summarizes predictions against their true values: the error
// boxplot and the predicted-vs-true metrics.
func accuracy(name string, pred, truth []float64) AccuracyResult {
	return AccuracyResult{
		Name:    name,
		Metrics: regress.Assess(pred, truth),
		Errors:  stats.Boxplot(stats.AbsPctErrors(pred, truth)),
	}
}

// perAppMedians computes per-application median errors from predictions
// aligned with samples.
func perAppMedians(pred, truth []float64, samples []core.Sample) map[string]float64 {
	predBy, truthBy := map[string][]float64{}, map[string][]float64{}
	for i, s := range samples {
		predBy[s.App] = append(predBy[s.App], pred[i])
		truthBy[s.App] = append(truthBy[s.App], truth[i])
	}
	out := make(map[string]float64, len(predBy))
	for app, p := range predBy {
		out[app] = stats.MedianAbsPctError(p, truthBy[app])
	}
	return out
}
