package core

import (
	"context"
	"testing"

	"hsmodel/internal/genetic"
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

// TestTrainReportCarriesFitPathCounters: TrainResilient surfaces the Gram
// counters in its report.
func TestTrainReportCarriesFitPathCounters(t *testing.T) {
	m := gramTestTrainer(t, 30)
	rep, err := m.TrainResilient(context.Background(), Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rung != RungGenetic {
		t.Fatalf("rung = %v, want genetic", rep.Rung)
	}
	if rep.GramFits+rep.QRFallbacks == 0 {
		t.Error("TrainReport has zero fit-path counters")
	}
	if s := rep.String(); s == "" {
		t.Error("empty report string")
	}
}

// TestFitPathStatsPerRun: the fit-path counters describe one run. Two
// TrainResilient runs over an unchanged store do the same fits, so they must
// report equal counters (not a running total), and FitPathStats must equal
// the latest report.
func TestFitPathStatsPerRun(t *testing.T) {
	m := gramTestTrainer(t, 24)
	ctx := context.Background()
	first, err := m.TrainResilient(ctx, Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.TrainResilient(ctx, Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	if first.GramFits+first.QRFallbacks == 0 {
		t.Fatal("first run recorded no candidate fits")
	}
	if second.GramFits != first.GramFits || second.QRFallbacks != first.QRFallbacks {
		t.Errorf("second run reports %d gram / %d qr fits, first run %d / %d",
			second.GramFits, second.QRFallbacks, first.GramFits, first.QRFallbacks)
	}
	if s := m.FitPathStats(); s.GramFits != second.GramFits || s.QRFallbacks != second.QRFallbacks {
		t.Errorf("FitPathStats = %d gram / %d qr, latest report %d / %d",
			s.GramFits, s.QRFallbacks, second.GramFits, second.QRFallbacks)
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
	m.AddSamples(col.Collect([]*trace.App{trace.Sjeng()}, 12, 99))
	if err := m.Update(ctx); err != nil {
		t.Fatal(err)
	}
	if rows, n := m.Snapshot().TrainedRows(), m.NumSamples(); rows != n {
		t.Errorf("updated model fitted %d rows, store has %d", rows, n)
	}
}
