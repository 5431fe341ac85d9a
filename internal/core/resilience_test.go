package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"hsmodel/internal/faultinject"
	"hsmodel/internal/genetic"
)

// newSmallModeler returns an untrained trainer over a small sample set, with
// search parameters sized for unit tests.
func newSmallModeler(t *testing.T) *Trainer {
	t.Helper()
	m := NewTrainer(smallCollector().Collect(smallApps(), 40, 1))
	m.Search = genetic.Params{PopulationSize: 16, Generations: 5, Seed: 42}
	return m
}

func TestTrainResilientHealthyUsesGeneticRung(t *testing.T) {
	m := newSmallModeler(t)
	rep, err := m.TrainResilient(context.Background(), Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rung != RungGenetic {
		t.Errorf("rung = %v, want genetic", rep.Rung)
	}
	if rep.GeneticErr != nil || rep.StepwiseErr != nil || rep.LoadErr != nil {
		t.Errorf("healthy train reported errors: %+v", rep)
	}
	if m.Model() == nil {
		t.Error("no model after healthy train")
	}
}

// TestTrainResilientPanicDegradesToStepwise: a transient fault (one panic,
// then clear) kills the genetic search; the ladder must land on stepwise
// with a usable model and a report naming both what failed and what served.
func TestTrainResilientPanicDegradesToStepwise(t *testing.T) {
	m := newSmallModeler(t)
	var inj *faultinject.Evaluator
	m.WrapEvaluator = func(inner genetic.Evaluator) genetic.Evaluator {
		if inj == nil {
			inj = &faultinject.Evaluator{Inner: inner, PanicEvery: 1, MaxPanics: 1}
		} else {
			inj.Inner = inner // same schedule counters across rungs
		}
		return inj
	}
	rep, err := m.TrainResilient(context.Background(), Resilience{StepwiseBudget: 120})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rung != RungStepwise {
		t.Fatalf("rung = %v, want stepwise (report: %v)", rep.Rung, rep)
	}
	if !errors.Is(rep.GeneticErr, genetic.ErrEvalPanic) {
		t.Errorf("GeneticErr = %v, want ErrEvalPanic", rep.GeneticErr)
	}
	if m.Model() == nil {
		t.Fatal("no model from stepwise rung")
	}
	s0 := m.Samples()[0]
	if _, err := m.PredictShard(s0.X, s0.HW); err != nil {
		t.Errorf("stepwise model cannot predict: %v", err)
	}
}

// TestTrainResilientServesLastGoodFromDisk is the end-to-end acceptance
// test: a persistently panicking evaluator defeats BOTH searches without
// crashing the process, and the modeler falls back to the last-good
// persisted model, which keeps answering predictions.
func TestTrainResilientServesLastGoodFromDisk(t *testing.T) {
	trained, valid := trainSmallModeler(t)
	lastGood := filepath.Join(t.TempDir(), "last-good.json")
	if err := trained.Save(lastGood, testShardLen); err != nil {
		t.Fatal(err)
	}

	m := newSmallModeler(t)
	inj := &faultinject.Evaluator{PanicEvery: 1} // unlimited panics
	m.WrapEvaluator = func(inner genetic.Evaluator) genetic.Evaluator {
		inj.Inner = inner
		return inj
	}
	rep, err := m.TrainResilient(context.Background(), Resilience{
		StepwiseBudget: 50,
		LastGoodPath:   lastGood,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rung != RungLastGood {
		t.Fatalf("rung = %v, want last-good (report: %v)", rep.Rung, rep)
	}
	if !errors.Is(rep.GeneticErr, genetic.ErrEvalPanic) {
		t.Errorf("GeneticErr = %v, want ErrEvalPanic", rep.GeneticErr)
	}
	if !errors.Is(rep.StepwiseErr, genetic.ErrEvalPanic) {
		t.Errorf("StepwiseErr = %v, want ErrEvalPanic", rep.StepwiseErr)
	}
	// The served predictions are exactly the persisted model's.
	want, err1 := trained.PredictShard(valid[0].X, valid[0].HW)
	got, err2 := m.PredictShard(valid[0].X, valid[0].HW)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Errorf("last-good prediction %v, want %v", got, want)
	}
}

// TestTrainResilientNaNSamplesDegrade: NaN-poisoned profile rows make
// featurization fail as bad input, so both search rungs fail; a previously
// published snapshot must keep serving. The poisoning goes through
// SetSamples like any real sample mutation.
func TestTrainResilientNaNSamplesDegrade(t *testing.T) {
	m, _ := trainSmallModeler(t)
	before := m.Model()
	poisoned := m.Samples()
	rows := make([][]float64, len(poisoned))
	for i := range poisoned {
		rows[i] = poisoned[i].X[:]
	}
	if n := faultinject.PoisonRows(rows, 5, 99); n == 0 {
		t.Fatal("poisoned no rows")
	}
	m.SetSamples(poisoned)
	rep, err := m.TrainResilient(context.Background(), Resilience{StepwiseBudget: 40})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rung != RungLastGood {
		t.Fatalf("rung = %v, want last-good (report: %v)", rep.Rung, rep)
	}
	if rep.GeneticErr == nil || rep.StepwiseErr == nil {
		t.Errorf("expected both search rungs to fail: %v", rep)
	}
	if m.Model() != before {
		t.Error("failed retrain must not clobber the in-memory model")
	}
}

// TestTrainResilientAllRungsFail: no last-good anywhere → RungNone plus an
// error that still names the underlying fault.
func TestTrainResilientAllRungsFail(t *testing.T) {
	m := newSmallModeler(t)
	inj := &faultinject.Evaluator{PanicEvery: 1}
	m.WrapEvaluator = func(inner genetic.Evaluator) genetic.Evaluator {
		inj.Inner = inner
		return inj
	}
	rep, err := m.TrainResilient(context.Background(), Resilience{StepwiseBudget: 30})
	if err == nil {
		t.Fatal("expected an error when every rung fails")
	}
	if rep.Rung != RungNone {
		t.Errorf("rung = %v, want none", rep.Rung)
	}
	if !errors.Is(err, genetic.ErrEvalPanic) {
		t.Errorf("err = %v, should wrap ErrEvalPanic", err)
	}
	if m.Model() != nil {
		t.Error("modeler conjured a model from nowhere")
	}
}

// TestTrainResilientCorruptLastGood: a corrupted model file must be refused
// (typed error in the report), not half-loaded.
func TestTrainResilientCorruptLastGood(t *testing.T) {
	trained, _ := trainSmallModeler(t)
	lastGood := filepath.Join(t.TempDir(), "last-good.json")
	if err := trained.Save(lastGood, testShardLen); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.CorruptFile(lastGood, 7, faultinject.Truncate); err != nil {
		t.Fatal(err)
	}

	m := newSmallModeler(t)
	inj := &faultinject.Evaluator{PanicEvery: 1}
	m.WrapEvaluator = func(inner genetic.Evaluator) genetic.Evaluator {
		inj.Inner = inner
		return inj
	}
	rep, err := m.TrainResilient(context.Background(), Resilience{
		StepwiseBudget: 30,
		LastGoodPath:   lastGood,
	})
	if err == nil {
		t.Fatal("expected failure with a corrupt last-good file")
	}
	if rep.Rung != RungNone {
		t.Errorf("rung = %v, want none", rep.Rung)
	}
	if !errors.Is(rep.LoadErr, ErrModelCorrupt) {
		t.Errorf("LoadErr = %v, want ErrModelCorrupt", rep.LoadErr)
	}
}

// TestTrainResilientDeadlineFallsToStepwise: a search deadline shorter than
// one delayed evaluation cancels the genetic rung; stepwise (bounded by the
// caller's healthy context, not the expired one) completes.
func TestTrainResilientDeadlineFallsToStepwise(t *testing.T) {
	m := newSmallModeler(t)
	inj := &faultinject.Evaluator{Delay: 2 * time.Millisecond}
	m.WrapEvaluator = func(inner genetic.Evaluator) genetic.Evaluator {
		inj.Inner = inner
		return inj
	}
	rep, err := m.TrainResilient(context.Background(), Resilience{
		SearchTimeout:  time.Millisecond,
		StepwiseBudget: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rung != RungStepwise {
		t.Fatalf("rung = %v, want stepwise (report: %v)", rep.Rung, rep)
	}
	if !errors.Is(rep.GeneticErr, genetic.ErrCancelled) {
		t.Errorf("GeneticErr = %v, want ErrCancelled", rep.GeneticErr)
	}
	if m.Model() == nil {
		t.Error("no model from stepwise rung")
	}
}

// TestTrainResilientDeadCallerContextSkipsStepwise: when the caller's own
// context is dead, the ladder must not burn compute on stepwise — it goes
// straight to last-good.
func TestTrainResilientDeadCallerContextSkipsStepwise(t *testing.T) {
	m, _ := trainSmallModeler(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := m.TrainResilient(ctx, Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rung != RungLastGood {
		t.Fatalf("rung = %v, want last-good (report: %v)", rep.Rung, rep)
	}
	if !errors.Is(rep.GeneticErr, genetic.ErrCancelled) {
		t.Errorf("GeneticErr = %v, want ErrCancelled", rep.GeneticErr)
	}
	if rep.StepwiseErr == nil || !errors.Is(rep.StepwiseErr, context.Canceled) {
		t.Errorf("StepwiseErr = %v, want the skip reason (context.Canceled)", rep.StepwiseErr)
	}
	if rep.String() == "" {
		t.Error("report should render")
	}
}
