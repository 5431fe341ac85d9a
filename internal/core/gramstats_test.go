package core

import (
	"context"
	"sync/atomic"
	"testing"

	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
	"hsmodel/internal/trace"
)

// gramTestTrainer collects a small sample store and returns a trainer with a
// quick search configuration.
func gramTestTrainer(t *testing.T, samplesPerApp int) *Trainer {
	t.Helper()
	col := &Collector{ShardLen: 20_000, ShardPool: 8}
	apps := []*trace.App{trace.Bzip2(), trace.Hmmer(), trace.Astar()}
	m := NewTrainer(col.Collect(apps, samplesPerApp, 7))
	m.Search = genetic.Params{PopulationSize: 14, Generations: 3, Seed: 7, Workers: 2}
	return m
}

// TestTrainUsesGramPath: after a genetic training run, the evaluator's Gram
// layer must have served fits — and mostly from the Cholesky path, since the
// collected profile store is well-conditioned.
func TestTrainUsesGramPath(t *testing.T) {
	m := gramTestTrainer(t, 30)
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := m.FitPathStats()
	total := s.GramFits + s.QRFallbacks
	if total == 0 {
		t.Fatal("no candidate fits recorded by the Gram layer")
	}
	if s.GramFits == 0 {
		t.Errorf("all %d fits fell back to QR; Gram path never used", total)
	}
	if s.EntryMisses == 0 || s.EntryHits == 0 {
		t.Errorf("entry counters not moving: hits=%d misses=%d", s.EntryHits, s.EntryMisses)
	}
	t.Logf("gram=%d qr=%d entry hits=%d misses=%d", s.GramFits, s.QRFallbacks, s.EntryHits, s.EntryMisses)
}

// TestTrainReportCarriesFitPathCounters: Train surfaces the Gram counters in
// its report.
func TestTrainReportCarriesFitPathCounters(t *testing.T) {
	m := gramTestTrainer(t, 30)
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.Rung != RungGenetic {
		t.Fatalf("rung = %v, want genetic", rep.Rung)
	}
	if rep.Gram.GramFits+rep.Gram.QRFallbacks == 0 {
		t.Error("TrainReport has zero fit-path counters")
	}
	if s := rep.String(); s == "" {
		t.Error("empty report string")
	}
}

// countingEvaluator counts the fitness calls that reach the run's evaluator:
// each one is at most one candidate fit of the run's Gram layer (a spec the
// layer refuses before solving, such as one with more design columns than
// rows, counts on neither path).
type countingEvaluator struct {
	inner genetic.Evaluator
	calls *atomic.Uint64
}

func (e countingEvaluator) Fitness(spec regress.Spec) float64 {
	e.calls.Add(1)
	return e.inner.Fitness(spec)
}

// TestFitPathStatsPerRun: the fit-path counters describe one run, not a
// running total. Over an unchanged store a cold Train and a warm-started one
// each report no more candidate fits than their own fitness calls made (a
// running total would add the first run's fits to the second's), and
// FitPathStats equals the latest report.
func TestFitPathStatsPerRun(t *testing.T) {
	m := gramTestTrainer(t, 24)
	var calls atomic.Uint64
	m.WrapEvaluator = func(inner genetic.Evaluator) genetic.Evaluator {
		return countingEvaluator{inner: inner, calls: &calls}
	}
	ctx := context.Background()
	for run := 0; run < 2; run++ {
		calls.Store(0)
		if err := m.Train(ctx); err != nil {
			t.Fatal(err)
		}
		rep := m.Report()
		fits := rep.Gram.GramFits + rep.Gram.QRFallbacks
		if fits == 0 {
			t.Fatalf("run %d recorded no candidate fits", run)
		}
		if n := calls.Load(); fits > n {
			t.Errorf("run %d reports %d gram + %d qr fits, its fitness calls made only %d",
				run, rep.Gram.GramFits, rep.Gram.QRFallbacks, n)
		}
		if s := m.FitPathStats(); s != rep.Gram {
			t.Errorf("run %d: FitPathStats = %+v, report %+v", run, s, rep.Gram)
		}
	}
}

// TestGramCacheInvalidatedOnSampleMutation: a run after AddSamples builds
// its evaluator (and Gram cache) over the whole store, so the published
// model is fitted on every row rather than on a stale dataset version.
func TestGramCacheInvalidatedOnSampleMutation(t *testing.T) {
	m := gramTestTrainer(t, 24)
	ctx := context.Background()
	if err := m.Train(ctx); err != nil {
		t.Fatal(err)
	}
	col := &Collector{ShardLen: 20_000, ShardPool: 8}
	if err := m.AddSamples(col.Collect([]*trace.App{trace.Sjeng()}, 12, 99)); err != nil {
		t.Fatal(err)
	}
	if err := m.Train(ctx); err != nil {
		t.Fatal(err)
	}
	if rows, n := m.Snapshot().TrainedRows(), m.NumSamples(); rows != n {
		t.Errorf("updated model fitted %d rows, store has %d", rows, n)
	}
}
