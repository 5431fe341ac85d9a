package experiments

import (
	"fmt"

	"hsmodel/internal/core"
	"hsmodel/internal/isa"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
	"hsmodel/internal/stats"
	"hsmodel/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 10: shard-level leave-one-application-out extrapolation.

// Fig10Result reports per-application shard extrapolation.
type Fig10Result struct {
	PerApp  map[string]regress.Metrics
	Overall AccuracyResult
}

// Fig10 trains on n-1 applications and predicts the held-out application's
// shards, for each application in turn.
func Fig10(w *Workspace) (Fig10Result, error) {
	cfg := w.Cfg
	train := w.TrainingSamples()
	res := Fig10Result{PerApp: map[string]regress.Metrics{}}
	var allPred, allTruth []float64
	var allErrs []float64

	for n, app := range w.Apps() {
		var rest []core.Sample
		for _, s := range train {
			if s.AppID != n {
				rest = append(rest, s)
			}
		}
		m := core.NewTrainer(rest)
		m.Search = cfg.searchParams(uint64(0xF10 + n))
		if err := m.Train(w.ctx); err != nil {
			return res, fmt.Errorf("fig10 %s: %w", app.Name, err)
		}
		// Validate against separately profiled shards of application n.
		perApp := cfg.ValidationPairs / len(w.Apps()) * 3
		if perApp < 20 {
			perApp = 20
		}
		valid := cfg.collector().Collect([]*trace.App{app}, perApp, cfg.Seed^uint64(0xAB10+n))
		pred, truth, err := m.Snapshot().PredictSamples(valid)
		if err != nil {
			return res, err
		}
		res.PerApp[app.Name] = regress.Assess(pred, truth)
		allPred = append(allPred, pred...)
		allTruth = append(allTruth, truth...)
		allErrs = append(allErrs, stats.AbsPctErrors(pred, truth)...)
	}
	res.Overall = AccuracyResult{
		Name:    "shard extrapolation",
		Metrics: regress.Assess(allPred, allTruth),
		Errors:  stats.Boxplot(allErrs),
	}
	out := cfg.out()
	fmt.Fprintf(out, "Figure 10 — shard-level extrapolation (leave-one-application-out)\n")
	for _, app := range w.Apps() {
		fmt.Fprintf(out, "  %-10s %v\n", app.Name, res.PerApp[app.Name])
	}
	printAccuracy(out, "  overall", res.Overall)
	return res, nil
}

// ---------------------------------------------------------------------------
// Figures 7(b)/8(b): extrapolation for software variants, plus the in-text
// compiler-optimization effect ("up to 60%; mean effect is 26%").

// Fig7bResult reports variant extrapolation.
type Fig7bResult struct {
	Accuracy AccuracyResult
	// OptEffectMax/Mean quantify how much -O1/-O3 move performance against
	// the base binary on a fixed architecture.
	OptEffectMax, OptEffectMean float64
	Updated                     bool
}

// Fig7b perturbs the trained system with -O1/-O3 and -v1/-v2/-v3 variants,
// runs the update protocol, and validates on variant pairs.
func Fig7b(w *Workspace) (Fig7bResult, error) {
	cfg := w.Cfg
	base, err := w.Model()
	if err != nil {
		return Fig7bResult{}, err
	}
	// Work on a copy so the workspace's steady-state model stays pristine.
	m := core.NewTrainer(base.Samples())
	m.Search = cfg.searchParams(0xF7B)
	if err := m.Train(w.ctx); err != nil {
		return Fig7bResult{}, err
	}

	// Build the variant roster: every application's five variants.
	var variants []*trace.App
	for _, app := range w.Apps() {
		variants = append(variants, trace.Variants(app)...)
	}
	col := cfg.collector()
	// Update profiles: a few per variant (10-20 points suffice, §3.3).
	perVariant := 4
	update := col.Collect(variants, perVariant, cfg.Seed^0x7B07)
	for i := range update {
		update[i].AppID = 100 + update[i].AppID // new software identities
	}
	decision, err := m.Perturb(w.ctx, update, core.UpdatePolicy{ErrThreshold: 0.10})
	if err != nil {
		return Fig7bResult{}, err
	}

	// Validate on fresh variant pairs (the paper's 150).
	perVariantVal := (150 + len(variants) - 1) / len(variants)
	valid := col.Collect(variants, perVariantVal, cfg.Seed^0x7B99)
	pred, truth, err := m.Snapshot().PredictSamples(valid)
	if err != nil {
		return Fig7bResult{}, err
	}
	res := Fig7bResult{
		Accuracy: AccuracyResult{
			Name:    "variant extrapolation",
			Metrics: regress.Assess(pred, truth),
			Errors:  stats.Boxplot(stats.AbsPctErrors(pred, truth)),
		},
		Updated: decision.Updated,
	}

	// Compiler-optimization effect on a fixed architecture.
	res.OptEffectMax, res.OptEffectMean = optEffect(w)

	out := cfg.out()
	fmt.Fprintf(out, "Figure 7(b)/8(b) — software-variant extrapolation (update: %v)\n", decision)
	printAccuracy(out, "  accuracy", res.Accuracy)
	fmt.Fprintf(out, "  compiler optimizations move performance: max %.0f%%, mean %.0f%% (paper: up to 60%%, mean 26%%)\n",
		100*res.OptEffectMax, 100*res.OptEffectMean)
	return res, nil
}

// optEffect measures |CPI(variant)-CPI(base)|/CPI(base) for the compiler
// variants on the baseline architecture.
func optEffect(w *Workspace) (maxEff, meanEff float64) {
	cfg := w.Cfg
	col := cfg.collector()
	var effects []float64
	for appID, app := range w.Apps() {
		for shard := 0; shard < 3; shard++ {
			baseCPI := simCPI(col, app, appID, shard)
			for _, opt := range []trace.Opt{trace.OptO1, trace.OptO3} {
				v := trace.WithOpt(app, opt)
				eff := simCPI(col, v, appID, shard)/baseCPI - 1
				if eff < 0 {
					eff = -eff
				}
				effects = append(effects, eff)
			}
		}
	}
	for _, e := range effects {
		if e > maxEff {
			maxEff = e
		}
		meanEff += e
	}
	meanEff /= float64(len(effects))
	return
}

func simCPI(col *core.Collector, app *trace.App, appID, shard int) float64 {
	s := col.CollectPairs([]*trace.App{app}, []int{0}, []int{shard},
		[]hwConfig{baselineHW()})
	return s[0].CPI
}

// ---------------------------------------------------------------------------
// Figures 7(c)/8(c): extrapolation for fundamentally new software on new
// architectures, with model updates.

// Fig7cResult reports leave-one-out application extrapolation after updates.
type Fig7cResult struct {
	PerApp  map[string]regress.Metrics
	Overall AccuracyResult
	Updated int // how many of the turns triggered a model update
}

// Fig7c gives each application a turn as "application n": the other n-1
// train, application n perturbs the system, the model updates, and accuracy
// is measured on fresh (application n, architecture) pairs.
func Fig7c(w *Workspace) (Fig7cResult, error) {
	cfg := w.Cfg
	train := w.TrainingSamples()
	col := cfg.collector()
	res := Fig7cResult{PerApp: map[string]regress.Metrics{}}
	var allPred, allTruth, allErrs []float64

	for n, app := range w.Apps() {
		var rest []core.Sample
		for _, s := range train {
			if s.AppID != n {
				rest = append(rest, s)
			}
		}
		m := core.NewTrainer(rest)
		m.Search = cfg.searchParams(uint64(0xF7C + n))
		if err := m.Train(w.ctx); err != nil {
			return res, err
		}
		// Perturb with 10-20 profiles of the new application; the update
		// protocol decides whether to re-specify.
		newProfiles := col.Collect([]*trace.App{app}, 15, cfg.Seed^uint64(0xC0+n))
		for i := range newProfiles {
			newProfiles[i].AppID = n
		}
		d, err := m.Perturb(w.ctx, newProfiles, core.UpdatePolicy{ErrThreshold: 0.10})
		if err != nil {
			return res, err
		}
		if d.Updated {
			res.Updated++
		}
		// Validate on fresh pairs of application n (new architectures).
		valid := col.Collect([]*trace.App{app}, cfg.ValidationPairs/len(w.Apps()), cfg.Seed^uint64(0xC70+n))
		pred, truth, err := m.Snapshot().PredictSamples(valid)
		if err != nil {
			return res, err
		}
		res.PerApp[app.Name] = regress.Assess(pred, truth)
		allPred = append(allPred, pred...)
		allTruth = append(allTruth, truth...)
		allErrs = append(allErrs, stats.AbsPctErrors(pred, truth)...)
	}
	res.Overall = AccuracyResult{
		Name:    "new app/arch extrapolation",
		Metrics: regress.Assess(allPred, allTruth),
		Errors:  stats.Boxplot(allErrs),
	}
	out := cfg.out()
	fmt.Fprintf(out, "Figure 7(c)/8(c) — new application + architecture extrapolation (%d/%d turns updated)\n",
		res.Updated, len(w.Apps()))
	for _, app := range w.Apps() {
		fmt.Fprintf(out, "  %-10s %v\n", app.Name, res.PerApp[app.Name])
	}
	printAccuracy(out, "  overall", res.Overall)
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 9: why bwaves extrapolates poorly.

// Fig9Result quantifies the outlier analysis.
type Fig9Result struct {
	// Deltas[app][i] is (mean characteristic i of app) minus (mean of its
	// n-1 training applications), normalized by the training mean.
	Deltas map[string]profile.Characteristics
	// CPIBwaves and CPIOthers are CPI histograms on a fixed architecture.
	CPIBwaves, CPIOthers stats.Histogram
	// BwavesModes counts detected CPI modes for bwaves (the paper: bimodal
	// around 0.5 and 1.0).
	BwavesModes int
}

// Fig9 contrasts bwaves (and sjeng) against their training sets.
func Fig9(w *Workspace) Fig9Result {
	cfg := w.Cfg
	res := Fig9Result{Deltas: map[string]profile.Characteristics{}}

	// Mean characteristics per application.
	means := map[string]profile.Characteristics{}
	var order []string
	for _, app := range w.Apps() {
		app := app
		profs := profile.StreamShards(app.Name, profile.ShardRange(cfg.ShardPool/2), func(s int) []isa.Inst {
			return app.ShardTrace(s, cfg.ShardLen)
		})
		means[app.Name] = profile.MeanCharacteristics(profs)
		order = append(order, app.Name)
	}
	for _, target := range order {
		var trainMean profile.Characteristics
		n := 0
		for _, other := range order {
			if other == target {
				continue
			}
			for i, v := range means[other] {
				trainMean[i] += v
			}
			n++
		}
		var delta profile.Characteristics
		for i := range trainMean {
			trainMean[i] /= float64(n)
			if trainMean[i] != 0 {
				delta[i] = (means[target][i] - trainMean[i]) / trainMean[i]
			}
		}
		res.Deltas[target] = delta
	}

	// CPI distributions on the baseline architecture.
	col := cfg.collector()
	var bwCPI, otherCPI []float64
	for appID, app := range w.Apps() {
		for s := 0; s < cfg.ShardPool; s++ {
			sample := col.CollectPairs([]*trace.App{app}, []int{0}, []int{s}, []hwConfig{baselineHW()})
			if w.Apps()[appID].Name == "bwaves" {
				bwCPI = append(bwCPI, sample[0].CPI)
			} else {
				otherCPI = append(otherCPI, sample[0].CPI)
			}
		}
	}
	res.CPIBwaves = stats.NewHistogram(bwCPI, 16)
	res.CPIOthers = stats.NewHistogram(otherCPI, 16)
	res.BwavesModes = len(res.CPIBwaves.Modes(len(bwCPI) / 20))

	out := cfg.out()
	fmt.Fprintf(out, "Figure 9 — outlier analysis\n")
	fmt.Fprintf(out, "  normalized characteristic deltas vs training mean (|delta| > 0.5 marked *):\n")
	for _, name := range []string{"sjeng", "bwaves"} {
		fmt.Fprintf(out, "  %-8s", name)
		for i, d := range res.Deltas[name] {
			mark := " "
			if d > 0.5 || d < -0.5 {
				mark = "*"
			}
			fmt.Fprintf(out, " x%d=%+.2f%s", i+1, d, mark)
		}
		fmt.Fprintln(out)
	}
	printHistogramTo(out, "  CPI, all apps except bwaves", res.CPIOthers)
	printHistogramTo(out, "  CPI, bwaves", res.CPIBwaves)
	fmt.Fprintf(out, "  bwaves CPI modes detected: %d (paper: bimodal)\n", res.BwavesModes)
	return res
}

// MaxAbsDelta returns the largest |normalized delta| across characteristics
// for an application — the Figure 9(a) headline comparison.
func (r Fig9Result) MaxAbsDelta(app string) float64 {
	var maxAbs float64
	for _, d := range r.Deltas[app] {
		if d < 0 {
			d = -d
		}
		if d > maxAbs {
			maxAbs = d
		}
	}
	return maxAbs
}
