package experiments

import (
	"fmt"

	"hsmodel/internal/core"
	"hsmodel/internal/family"
	"hsmodel/internal/family/spline"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
	"hsmodel/internal/spmv"
)

// Ablations isolate the design decisions DESIGN.md calls out. Each returns
// (withFeature, withoutFeature) validation median errors so the benefit is a
// single comparable number.

// AblationResult is one with/without comparison.
type AblationResult struct {
	Name       string
	WithErr    float64
	WithoutErr float64
}

// Benefit returns WithoutErr/WithErr (>1 means the feature helps).
func (a AblationResult) Benefit() float64 {
	if a.WithErr == 0 {
		return 0
	}
	return a.WithoutErr / a.WithErr
}

func (a AblationResult) String() string {
	return fmt.Sprintf("%s: with=%.1f%% without=%.1f%% benefit=%.2fx",
		a.Name, 100*a.WithErr, 100*a.WithoutErr, a.Benefit())
}

// AblationStabilization compares models with and without ladder-of-powers
// variance stabilization (Section 3.1 / Figure 3).
func AblationStabilization(w *Workspace) (AblationResult, error) {
	return ablateModeler(w, "variance stabilization", func(m *core.Trainer, on bool) {
		m.Stabilize = on
	})
}

// AblationInteractions compares the GA-chosen model against the same search
// with interactions disabled (main effects only).
func AblationInteractions(w *Workspace) (AblationResult, error) {
	cfg := w.Cfg
	train := w.TrainingSamples()
	valid := w.ValidationSamples()

	with, err := w.trainOn(train, 0xAB1, nil)
	if err != nil {
		return AblationResult{}, err
	}
	wm, err := with.Snapshot().EvaluateOn(valid)
	if err != nil {
		return AblationResult{}, err
	}

	// Without: the same converged specifications, stripped of interactions.
	best := with.Population()[0].Spec.Clone()
	best.Interactions = nil
	stripped, err := fitFixedSpec(best, train)
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{
		Name:       "pairwise interactions",
		WithErr:    wm.MedAPE,
		WithoutErr: stripped.Evaluate(core.ToDataset(valid)).MedAPE,
	}
	fmt.Fprintln(cfg.out(), res)
	return res, nil
}

// AblationSharding compares shard-level profiles against monolithic
// per-application mean profiles (Section 2.1's motivation).
func AblationSharding(w *Workspace) (AblationResult, error) {
	cfg := w.Cfg
	train := append([]core.Sample(nil), w.TrainingSamples()...)
	valid := w.ValidationSamples()

	with, err := w.trainOn(train, 0xAB2, nil)
	if err != nil {
		return AblationResult{}, err
	}
	wm, err := with.Snapshot().EvaluateOn(valid)
	if err != nil {
		return AblationResult{}, err
	}

	// Without sharding: replace every sample's characteristics with its
	// application's mean profile (what a monolithic profiler reports).
	mono := make([]core.Sample, len(train))
	copy(mono, train)
	appMean := map[int]profile.Characteristics{}
	appCount := map[int]int{}
	for _, s := range train {
		m := appMean[s.AppID]
		for i, v := range s.X {
			m[i] += v
		}
		appMean[s.AppID] = m
		appCount[s.AppID]++
	}
	for id, m := range appMean {
		for i := range m {
			m[i] /= float64(appCount[id])
		}
		appMean[id] = m
	}
	for i := range mono {
		mono[i].X = appMean[mono[i].AppID]
	}
	monoValid := make([]core.Sample, len(valid))
	copy(monoValid, valid)
	for i := range monoValid {
		monoValid[i].X = appMean[monoValid[i].AppID]
	}

	without, err := w.trainOn(mono, 0xAB2, nil)
	if err != nil {
		return AblationResult{}, err
	}
	wo, err := without.Snapshot().EvaluateOn(monoValid)
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{Name: "shard-level profiles", WithErr: wm.MedAPE, WithoutErr: wo.MedAPE}
	fmt.Fprintln(cfg.out(), res)
	return res, nil
}

// AblationStepwise compares genetic search against forward stepwise
// regression at an equal evaluation budget (Section 2.4's argument).
func AblationStepwise(w *Workspace) (AblationResult, error) {
	cfg := w.Cfg
	train := w.TrainingSamples()
	valid := w.ValidationSamples()

	with, err := w.trainOn(train, 0xAB3, nil)
	if err != nil {
		return AblationResult{}, err
	}
	wm, err := with.Snapshot().EvaluateOn(valid)
	if err != nil {
		return AblationResult{}, err
	}
	budget := 0
	for _, gs := range with.Report().History {
		budget = gs.Evals
	}

	// Stepwise at the same budget on a strided hold-out fitness, then a
	// final fit on every training row.
	ds := core.ToDataset(train)
	fz, err := regress.NewFeaturizer(ds, true)
	if err != nil {
		return AblationResult{}, err
	}
	eval, err := family.HoldOutEvaluator(ds, fz.Prep())
	if err != nil {
		return AblationResult{}, err
	}
	final, _, err := spline.FitStepwise(w.ctx, family.FitInput{
		NumVars: core.NumVars, Featurizer: fz, Evaluator: eval, LogResponse: true,
	}, budget)
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{
		Name:       "genetic search vs stepwise",
		WithErr:    wm.MedAPE,
		WithoutErr: final.Evaluate(core.ToDataset(valid)).MedAPE,
	}
	fmt.Fprintln(cfg.out(), res)
	return res, nil
}

// AblationDomainSpecific compares the SpMV domain model (3 semantic software
// knobs) against a generic instruction-level treatment where the software
// side is only the raw block dimensions without the fill-ratio semantics
// (Section 5's "fewer, semantic-rich parameters to greater effect").
func AblationDomainSpecific(w *Workspace) (AblationResult, error) {
	cfg := w.Cfg
	s, err := w.spmvStudy("nasasrb")
	if err != nil {
		return AblationResult{}, err
	}
	train := s.Sample(cfg.SpmvTrain, cfg.Seed^0xAB5)
	valid := s.Sample(cfg.SpmvValidation, cfg.Seed^0xAB55)

	with, err := spmv.TrainDomainModel(w.ctx, s.Spec.Name, train, spmv.PredictMFlops, cfg.searchParams(0xAB5A))
	if err != nil {
		return AblationResult{}, err
	}
	withMet := spmv.EvaluateDomainModel(with, valid)

	// Without the fill-ratio semantics: zero out x3 so the model must infer
	// the fill penalty from block dimensions alone.
	strip := func(pts []spmv.Point) []spmv.Point {
		out := append([]spmv.Point(nil), pts...)
		for i := range out {
			out[i].Fill = 1
		}
		return out
	}
	without, err := spmv.TrainDomainModel(w.ctx, s.Spec.Name, strip(train), spmv.PredictMFlops, cfg.searchParams(0xAB5A))
	if err != nil {
		return AblationResult{}, err
	}
	withoutMet := spmv.EvaluateDomainModel(without, strip(valid))

	res := AblationResult{
		Name:       "domain-specific fill ratio",
		WithErr:    withMet.MedAPE,
		WithoutErr: withoutMet.MedAPE,
	}
	fmt.Fprintln(cfg.out(), res)
	return res, nil
}

// AblationLogResponse compares fitting log CPI against raw CPI — our one
// modeling choice beyond the paper's text, documented in DESIGN.md.
func AblationLogResponse(w *Workspace) (AblationResult, error) {
	return ablateModeler(w, "log-response fit", func(m *core.Trainer, on bool) {
		m.LogResponse = on
	})
}

// ablateModeler trains twice with a toggled knob.
func ablateModeler(w *Workspace, name string, set func(*core.Trainer, bool)) (AblationResult, error) {
	cfg := w.Cfg
	train := w.TrainingSamples()
	valid := w.ValidationSamples()
	run := func(on bool) (float64, error) {
		m, err := w.trainOn(train, 0xABA, func(m *core.Trainer) { set(m, on) })
		if err != nil {
			return 0, err
		}
		met, err := m.Snapshot().EvaluateOn(valid)
		if err != nil {
			return 0, err
		}
		return met.MedAPE, nil
	}
	withErr, err := run(true)
	if err != nil {
		return AblationResult{}, err
	}
	withoutErr, err := run(false)
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{Name: name, WithErr: withErr, WithoutErr: withoutErr}
	fmt.Fprintln(cfg.out(), res)
	return res, nil
}
