package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
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

// The ladder tests below each drive Train, which walks the degradation
// ladder: a selection round, then stepwise; when both fail, the last-good
// snapshot keeps serving.

func TestTrainHealthyUsesGeneticRung(t *testing.T) {
	m := newSmallModeler(t)
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.Rung != RungGenetic {
		t.Errorf("rung = %v, want genetic", rep.Rung)
	}
	if rep.GeneticErr != nil || rep.StepwiseErr != nil {
		t.Errorf("healthy train reported errors: %+v", rep)
	}
	if !m.Snapshot().Trained() {
		t.Error("no model after healthy train")
	}
}

// panicOnce wraps m's evaluator in one faultinject.Evaluator whose schedule
// panics on the first fitness call only, shared by both rungs of a run.
func panicOnce(m *Trainer) {
	var inj *faultinject.Evaluator
	m.WrapEvaluator = func(inner genetic.Evaluator) genetic.Evaluator {
		if inj == nil {
			inj = &faultinject.Evaluator{Inner: inner, PanicEvery: 1, MaxPanics: 1}
		} else {
			inj.Inner = inner // same schedule counters across rungs
		}
		return inj
	}
}

// panicAlways wraps m's evaluator so that every fitness call panics,
// defeating both rungs.
func panicAlways(m *Trainer) {
	inj := &faultinject.Evaluator{PanicEvery: 1} // unlimited panics
	m.WrapEvaluator = func(inner genetic.Evaluator) genetic.Evaluator {
		inj.Inner = inner
		return inj
	}
}

// TestTrainPanicDegradesToStepwise: a transient fault (one panic,
// then clear) kills the genetic search; Train must land on stepwise with a
// usable model and a report naming both what failed and what served.
func TestTrainPanicDegradesToStepwise(t *testing.T) {
	m := newSmallModeler(t)
	panicOnce(m)
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.Rung != RungStepwise {
		t.Fatalf("rung = %v, want stepwise (report: %v)", rep.Rung, rep)
	}
	if !errors.Is(rep.GeneticErr, genetic.ErrEvalPanic) {
		t.Errorf("GeneticErr = %v, want ErrEvalPanic", rep.GeneticErr)
	}
	if !m.Snapshot().Trained() {
		t.Fatal("no model from stepwise rung")
	}
	s0 := m.Samples()[0]
	if _, err := m.Snapshot().PredictShard(s0.X, s0.HW); err != nil {
		t.Errorf("stepwise model cannot predict: %v", err)
	}
}

// TestTrainFailureKeepsAdoptedLastGood: a persistently panicking
// evaluator defeats BOTH rungs without crashing the process; a model loaded
// from disk and adopted before the run keeps serving, bit for bit, and the
// run's error names the fault of each rung.
func TestTrainFailureKeepsAdoptedLastGood(t *testing.T) {
	trained, valid := trainSmallModeler(t)
	lastGood := filepath.Join(t.TempDir(), "last-good.json")
	if err := trained.Snapshot().Save(lastGood); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(lastGood)
	if err != nil {
		t.Fatal(err)
	}

	m := newSmallModeler(t)
	m.Adopt(loaded)
	panicAlways(m)
	err = m.Train(context.Background())
	if err == nil {
		t.Fatal("Train succeeded under unlimited panics")
	}
	if !errors.Is(err, genetic.ErrEvalPanic) {
		t.Errorf("err = %v, want ErrEvalPanic", err)
	}
	rep := m.Report()
	if rep.Rung != RungNone {
		t.Errorf("rung = %v, want none (report: %v)", rep.Rung, rep)
	}
	if !errors.Is(rep.GeneticErr, genetic.ErrEvalPanic) {
		t.Errorf("GeneticErr = %v, want ErrEvalPanic", rep.GeneticErr)
	}
	if !errors.Is(rep.StepwiseErr, genetic.ErrEvalPanic) {
		t.Errorf("StepwiseErr = %v, want ErrEvalPanic", rep.StepwiseErr)
	}
	if m.Snapshot() != loaded {
		t.Fatal("failed run replaced the adopted last-good snapshot")
	}
	// The served predictions are exactly the persisted model's.
	want, err1 := trained.Snapshot().PredictShard(valid[0].X, valid[0].HW)
	got, err2 := m.Snapshot().PredictShard(valid[0].X, valid[0].HW)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Errorf("last-good prediction %v, want %v", got, want)
	}
}

// TestTrainNaNSamplesKeepPublished: NaN-poisoned profile rows make
// featurization fail as bad input, so no rung can run; the previously
// published snapshot must keep serving. The poisoning goes through
// SetSamples like any real sample mutation.
func TestTrainNaNSamplesKeepPublished(t *testing.T) {
	m, _ := trainSmallModeler(t)
	before := m.Published()
	poisoned := m.Samples()
	rows := make([][]float64, len(poisoned))
	for i := range poisoned {
		rows[i] = poisoned[i].X[:]
	}
	if n := faultinject.PoisonRows(rows, 5, 99); n == 0 {
		t.Fatal("poisoned no rows")
	}
	m.SetSamples(poisoned)
	if err := m.Train(context.Background()); err == nil {
		t.Fatal("Train on poisoned rows succeeded")
	}
	if rep := m.Report(); rep.Rung != RungNone || rep.GeneticErr == nil {
		t.Errorf("report %v, want no rung and the featurization failure", rep)
	}
	if p := m.Published(); p.Snapshot != before.Snapshot || p.Generation != before.Generation {
		t.Error("failed retrain must not clobber the in-memory model")
	}
}

// TestTrainAllRungsFailPublishesNothing: with no model to fall back to, a run whose
// rungs both fail publishes nothing and returns an error that still names
// the underlying fault.
func TestTrainAllRungsFailPublishesNothing(t *testing.T) {
	m := newSmallModeler(t)
	panicAlways(m)
	err := m.Train(context.Background())
	if err == nil {
		t.Fatal("expected an error when every rung fails")
	}
	if rep := m.Report(); rep.Rung != RungNone {
		t.Errorf("rung = %v, want none", rep.Rung)
	}
	if !errors.Is(err, genetic.ErrEvalPanic) {
		t.Errorf("err = %v, should wrap ErrEvalPanic", err)
	}
	if m.Snapshot().Trained() {
		t.Error("modeler conjured a model from nowhere")
	}
}

// TestTrainCorruptLastGoodRefused: when both rungs fail, the last-good
// model is whatever loads from disk (hsinfer reloads its -out file), so a
// corrupted model file must be refused with a typed error, never
// half-loaded, and the failed run publishes nothing in its place.
func TestTrainCorruptLastGoodRefused(t *testing.T) {
	trained, _ := trainSmallModeler(t)
	lastGood := filepath.Join(t.TempDir(), "last-good.json")
	if err := trained.Snapshot().Save(lastGood); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.CorruptFile(lastGood, 7, faultinject.Truncate); err != nil {
		t.Fatal(err)
	}

	m := newSmallModeler(t)
	panicAlways(m)
	if err := m.Train(context.Background()); err == nil {
		t.Fatal("Train succeeded under unlimited panics")
	}
	snap, err := LoadSnapshot(lastGood)
	if !errors.Is(err, ErrModelCorrupt) || snap != nil {
		t.Errorf("LoadSnapshot = %v, %v; want nil, ErrModelCorrupt", snap, err)
	}
	if m.Snapshot().Trained() {
		t.Error("failed run published a model")
	}
}

// TestTrainDeadlineFallsToStepwise: a SearchTimeout shorter than
// one delayed evaluation cancels the genetic rung; stepwise (bounded by the
// caller's healthy context, not the expired one) completes.
func TestTrainDeadlineFallsToStepwise(t *testing.T) {
	m := newSmallModeler(t)
	m.SearchTimeout = time.Millisecond
	inj := &faultinject.Evaluator{Delay: 2 * time.Millisecond}
	m.WrapEvaluator = func(inner genetic.Evaluator) genetic.Evaluator {
		inj.Inner = inner
		return inj
	}
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.Rung != RungStepwise {
		t.Fatalf("rung = %v, want stepwise (report: %v)", rep.Rung, rep)
	}
	if !errors.Is(rep.GeneticErr, genetic.ErrCancelled) {
		t.Errorf("GeneticErr = %v, want ErrCancelled", rep.GeneticErr)
	}
	if !m.Snapshot().Trained() {
		t.Error("no model from stepwise rung")
	}
}

// TestTrainDeadCallerContextSkipsStepwise: when the caller's own
// context is dead, Train must not burn compute on stepwise: it returns the
// cancellation and keeps serving the model it had.
func TestTrainDeadCallerContextSkipsStepwise(t *testing.T) {
	m, _ := trainSmallModeler(t)
	served := m.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.Train(ctx)
	if !errors.Is(err, genetic.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	rep := m.Report()
	if rep.Rung != RungNone {
		t.Fatalf("rung = %v, want none (report: %v)", rep.Rung, rep)
	}
	if !errors.Is(rep.GeneticErr, genetic.ErrCancelled) {
		t.Errorf("GeneticErr = %v, want ErrCancelled", rep.GeneticErr)
	}
	if rep.StepwiseErr == nil || !errors.Is(rep.StepwiseErr, context.Canceled) {
		t.Errorf("StepwiseErr = %v, want the skip reason (context.Canceled)", rep.StepwiseErr)
	}
	if m.Snapshot() != served {
		t.Error("cancelled run replaced the served snapshot")
	}
	if rep.String() == "" {
		t.Error("report should render")
	}
}

// TestStepwiseRungGolden pins the stepwise rung's publish bit for bit: a
// one-panic evaluator kills the selection round on its first fitness call,
// the stepwise rung refits on the same capture at its fixed budget, and the
// hash covers the served spec, coefficients and held-out predictions.
func TestStepwiseRungGolden(t *testing.T) {
	apps := smallApps()
	col := &Collector{ShardLen: testShardLen, ShardPool: 12}
	tr := NewTrainer(col.Collect(apps, 40, 7))
	tr.ShardLen = testShardLen
	tr.Search = genetic.Params{PopulationSize: 10, Generations: 2, Seed: 3}
	panicOnce(tr)
	if err := tr.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if snap.Rung() != RungStepwise {
		t.Fatalf("rung = %v, want stepwise (report: %v)", snap.Rung(), tr.Report())
	}

	h := sha256.New()
	var b [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	m := splineOf(snap)
	fmt.Fprintf(h, "%s|%s|%d|", snap.Family(), m.Spec, snap.TrainedRows())
	for _, c := range m.Coef {
		put(c)
	}
	for _, s := range col.Collect(apps, 6, 17) {
		cpi, err := snap.PredictShard(s.X, s.HW)
		if err != nil {
			t.Fatal(err)
		}
		put(cpi)
	}
	const want = "369745b845380fd62e180ae035d96ba73fe425c30ff257e63f0f41021503aff0"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("stepwise hash %s, want %s", got, want)
	}
}
