package experiments

import (
	"fmt"
	"io"
	"math"

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

// print renders each held-out application's metrics, then the accuracy over
// every turn.
func (r Fig10Result) print(out io.Writer, apps []*trace.App) {
	for _, app := range apps {
		fmt.Fprintf(out, "  %-10s %v\n", app.Name, r.PerApp[app.Name])
	}
	printAccuracy(out, "  overall", r.Overall)
}

// Fig10 trains on n-1 applications and predicts the held-out application's
// shards, for each application in turn.
func Fig10(w *Workspace) (Fig10Result, error) {
	perApp := max(w.Cfg.ValidationPairs/len(w.Apps())*3, 20)
	res, err := w.leaveOneAppOut("shard extrapolation", 0xF10, 0xAB10, perApp, nil)
	if err != nil {
		return Fig10Result{}, fmt.Errorf("fig10: %w", err)
	}
	fmt.Fprintf(w.Cfg.out(), "Figure 10 — shard-level extrapolation (leave-one-application-out)\n")
	res.print(w.Cfg.out(), w.Apps())
	return res, nil
}

// leaveOneAppOut gives each application n a turn as the one held out: a
// trainer fits the other applications' training samples (search seed
// searchSeed+n), perturb, when not nil, updates it with profiles of
// application n, and it predicts perApp fresh samples of application n
// (collected with seed Seed^(validSeed+n)). It returns each application's
// metrics and the accuracy, named name, over every turn's predictions, in
// Figure 10's shape.
func (w *Workspace) leaveOneAppOut(name string, searchSeed, validSeed uint64, perApp int,
	perturb func(m *core.Trainer, n int, app *trace.App) error) (Fig10Result, error) {
	cfg := w.Cfg
	res := Fig10Result{PerApp: map[string]regress.Metrics{}}
	var allPred, allTruth []float64
	for n, app := range w.Apps() {
		var rest []core.Sample
		for _, s := range w.TrainingSamples() {
			if s.AppID != n {
				rest = append(rest, s)
			}
		}
		m, err := w.trainOn(rest, searchSeed+uint64(n), nil)
		if err == nil && perturb != nil {
			err = perturb(m, n, app)
		}
		if err != nil {
			return Fig10Result{}, fmt.Errorf("%s held out: %w", app.Name, err)
		}
		valid := cfg.collector().Collect([]*trace.App{app}, perApp, cfg.Seed^(validSeed+uint64(n)))
		pred, truth, err := m.Snapshot().PredictSamples(valid)
		if err != nil {
			return Fig10Result{}, err
		}
		res.PerApp[app.Name] = regress.Assess(pred, truth)
		allPred = append(allPred, pred...)
		allTruth = append(allTruth, truth...)
	}
	res.Overall = accuracy(name, allPred, allTruth)
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
	// A model of its own, on a copy of the training samples, so the update
	// below leaves the workspace's samples and steady-state model pristine.
	m, err := w.trainOn(append([]core.Sample(nil), w.TrainingSamples()...), 0xF7B, nil)
	if err != nil {
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
		Accuracy: accuracy("variant extrapolation", pred, truth),
		Updated:  decision.Updated,
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
	// apps holds base, -O1, -O3 of each application in turn.
	var apps []*trace.App
	for _, app := range w.Apps() {
		apps = append(apps, app, trace.WithOpt(app, trace.OptO1), trace.WithOpt(app, trace.OptO3))
	}
	cpi := w.Cfg.baselineCPI(apps, 3)
	n := 0
	for a := 0; a < len(apps); a += 3 {
		for shard, base := range cpi[a] {
			for _, variant := range cpi[a+1 : a+3] {
				eff := math.Abs(variant[shard]/base - 1)
				if eff > maxEff {
					maxEff = eff
				}
				meanEff += eff
				n++
			}
		}
	}
	meanEff /= float64(n)
	return
}

// baselineCPI simulates shards 0..shards-1 of every application on the
// baseline architecture in one collection: cpi[i][s] is apps[i]'s shard s.
// The collector traces each (index, shard) pair once, from the first
// request's application, so every program, a compiler variant included,
// needs its own index in apps.
func (c Config) baselineCPI(apps []*trace.App, shards int) (cpi [][]float64) {
	var appIDs, shardIDs []int
	var hws []hwConfig
	for appID := range apps {
		for s := 0; s < shards; s++ {
			appIDs = append(appIDs, appID)
			shardIDs = append(shardIDs, s)
			hws = append(hws, baselineHW())
		}
	}
	cpi = make([][]float64, len(apps))
	for _, s := range c.collector().CollectPairs(apps, appIDs, shardIDs, hws) {
		cpi[s.AppID] = append(cpi[s.AppID], s.CPI)
	}
	return cpi
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
	updated := 0
	// Perturb with 10-20 profiles of the new application; the update
	// protocol decides whether to re-specify.
	perturb := func(m *core.Trainer, n int, app *trace.App) error {
		newProfiles := cfg.collector().Collect([]*trace.App{app}, 15, cfg.Seed^uint64(0xC0+n))
		for i := range newProfiles {
			newProfiles[i].AppID = n
		}
		d, err := m.Perturb(w.ctx, newProfiles, core.UpdatePolicy{ErrThreshold: 0.10})
		if d.Updated {
			updated++
		}
		return err
	}
	// Validate on fresh pairs of application n (new architectures).
	r, err := w.leaveOneAppOut("new app/arch extrapolation", 0xF7C, 0xC70, cfg.ValidationPairs/len(w.Apps()), perturb)
	if err != nil {
		return Fig7cResult{}, fmt.Errorf("fig7c: %w", err)
	}
	fmt.Fprintf(cfg.out(), "Figure 7(c)/8(c) — new application + architecture extrapolation (%d/%d turns updated)\n",
		updated, len(w.Apps()))
	r.print(cfg.out(), w.Apps())
	return Fig7cResult{PerApp: r.PerApp, Overall: r.Overall, Updated: updated}, nil
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
	var bwCPI, otherCPI []float64
	for appID, cpi := range cfg.baselineCPI(w.Apps(), cfg.ShardPool) {
		if w.Apps()[appID].Name == "bwaves" {
			bwCPI = append(bwCPI, cpi...)
		} else {
			otherCPI = append(otherCPI, cpi...)
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
