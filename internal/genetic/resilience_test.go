package genetic

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"hsmodel/internal/regress"
)

// TestNaNFitnessClampedBeforeSort is the regression test for the elitist-sort
// ordering bug: an evaluator returning NaN for some specs used to violate the
// comparator's strict weak order and silently corrupt survivor selection.
// NaN must map to +Inf so degenerate candidates rank strictly last.
func TestNaNFitnessClampedBeforeSort(t *testing.T) {
	eval := EvaluatorFunc(func(s regress.Spec) float64 {
		// Specs with interactions are "degenerate" and fit to NaN.
		if len(s.Interactions) > 0 {
			return math.NaN()
		}
		return 1 + 0.01*float64(s.NumTerms())
	})
	res := search(t, 6, eval, Params{PopulationSize: 30, Generations: 8, Seed: 13})
	for i, ind := range res.Population {
		if math.IsNaN(ind.Fitness) {
			t.Fatalf("individual %d still NaN after sanitization", i)
		}
	}
	if math.IsInf(res.Best.Fitness, 1) || math.IsNaN(res.Best.Fitness) {
		t.Fatalf("best fitness %v: NaN candidates ranked ahead of real ones", res.Best.Fitness)
	}
	if len(res.Best.Spec.Interactions) != 0 {
		t.Error("a NaN-scoring spec won the search")
	}
	// Population must be sorted with all +Inf (former NaN) entries last.
	for i := 1; i < len(res.Population); i++ {
		if res.Population[i].Fitness < res.Population[i-1].Fitness {
			t.Fatalf("population unsorted at %d: %v < %v", i,
				res.Population[i].Fitness, res.Population[i-1].Fitness)
		}
	}
}

func TestSanitizeFitness(t *testing.T) {
	pop := []Individual{{Fitness: 1}, {Fitness: math.NaN()}, {Fitness: math.Inf(1)}, {Fitness: 0}}
	sanitizeFitness(pop)
	if pop[0].Fitness != 1 || pop[3].Fitness != 0 {
		t.Error("finite fitness must be untouched")
	}
	if !math.IsInf(pop[1].Fitness, 1) {
		t.Errorf("NaN not mapped to +Inf: %v", pop[1].Fitness)
	}
	if !math.IsInf(pop[2].Fitness, 1) {
		t.Error("+Inf must remain +Inf")
	}
}

// TestSearchEvaluatorPanicIsolated proves a panicking evaluation cannot kill
// the process: Search recovers, returns the best-so-far population, and
// reports a typed error.
func TestSearchEvaluatorPanicIsolated(t *testing.T) {
	var calls atomic.Int64
	eval := EvaluatorFunc(func(s regress.Spec) float64 {
		// The initial population is ~30 unique random specs, so call 10 is
		// guaranteed to land mid-generation-0 (cache misses only).
		if calls.Add(1) == 10 {
			panic("singular fit exploded")
		}
		return 2 + 0.01*float64(s.NumTerms())
	})
	res, err := Search(context.Background(), 5, eval, Params{
		PopulationSize: 30, Generations: 10, Seed: 4, Workers: 2,
	})
	if !errors.Is(err, ErrEvalPanic) {
		t.Fatalf("err = %v, want ErrEvalPanic", err)
	}
	if res == nil || len(res.Population) == 0 {
		t.Fatal("partial result missing")
	}
	if math.IsInf(res.Best.Fitness, 1) || math.IsNaN(res.Best.Fitness) {
		t.Errorf("best-so-far fitness %v not usable", res.Best.Fitness)
	}
}

// TestSearchCancelledMidRunReturnsPartial cancels deterministically from the
// generation callback and checks the partial-result contract.
func TestSearchCancelledMidRunReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Search(ctx, 6, quadraticTarget(), Params{
		PopulationSize: 20, Generations: 50, Seed: 8,
		OnGeneration: func(gs GenStats) {
			if gs.Gen == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if len(res.History) < 3 {
		t.Fatalf("history %d generations, want >= 3 before cancellation", len(res.History))
	}
	if len(res.History) >= 50 {
		t.Error("cancellation ignored")
	}
	if len(res.Population) != 20 {
		t.Fatalf("partial population %d", len(res.Population))
	}
	if math.IsInf(res.Best.Fitness, 1) || math.IsNaN(res.Best.Fitness) {
		t.Errorf("best-so-far fitness %v not usable", res.Best.Fitness)
	}
	// The partial best must match the last completed generation's best.
	if got, want := res.Best.Fitness, res.History[len(res.History)-1].Best; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("partial best %v != last scored generation best %v", got, want)
	}
}

// TestSearchDeadlineCancelsWithinGeneration: with a per-evaluation delay, an
// expired context deadline must stop the search within roughly one generation
// rather than running all 50.
func TestSearchDeadlineCancelsWithinGeneration(t *testing.T) {
	eval := EvaluatorFunc(func(s regress.Spec) float64 {
		time.Sleep(3 * time.Millisecond)
		return 1 + 0.01*float64(s.NumTerms())
	})
	start := time.Now()
	// Generation 0 alone is ~60 unique evals x 3ms / 2 workers ≈ 90ms, so a
	// 50ms deadline expires mid-generation; the fitness cache cannot help.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := Search(ctx, 6, eval, Params{
		PopulationSize: 60, Generations: 20, Seed: 2, Workers: 2,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	// The deadline plus at most one generation of in-flight drain must stay
	// far below the ~1.8s a full run would need.
	if elapsed > time.Second {
		t.Errorf("search ran %v after a 50ms deadline", elapsed)
	}
	if len(res.Population) == 0 {
		t.Fatal("no partial population")
	}
	if math.IsInf(res.Best.Fitness, 1) {
		t.Error("no usable best-so-far individual before deadline")
	}
}

// TestSearchCancelledBeforeStart: a context dead on arrival still yields a
// non-nil Result whose unevaluated individuals rank as +Inf.
func TestSearchCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Search(ctx, 4, quadraticTarget(), Params{PopulationSize: 10, Generations: 5, Seed: 1})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res == nil || len(res.Population) != 10 {
		t.Fatal("expected a full-size unevaluated population")
	}
	for _, ind := range res.Population {
		if !math.IsInf(ind.Fitness, 1) {
			t.Fatalf("unevaluated individual carries fitness %v", ind.Fitness)
		}
	}
}

func TestStepwisePanicReturnsPartialBest(t *testing.T) {
	var calls atomic.Int64
	eval := EvaluatorFunc(func(s regress.Spec) float64 {
		if calls.Add(1) == 20 {
			panic("boom")
		}
		return quadraticTarget().Fitness(s)
	})
	res, err := Stepwise(context.Background(), 6, eval, 500)
	if !errors.Is(err, ErrEvalPanic) {
		t.Fatalf("err = %v, want ErrEvalPanic", err)
	}
	if res == nil || res.Evals == 0 {
		t.Fatal("partial result missing")
	}
	if math.IsInf(res.Best.Fitness, 1) {
		t.Error("no best-so-far individual retained")
	}
}

func TestStepwiseCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	eval := EvaluatorFunc(func(s regress.Spec) float64 {
		if calls.Add(1) == 15 {
			cancel()
		}
		return quadraticTarget().Fitness(s)
	})
	res, err := Stepwise(ctx, 6, eval, 500)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res.Evals >= 500 || res.Evals < 15 {
		t.Errorf("evals %d: cancellation not honored promptly", res.Evals)
	}
}

// TestSearchDeterminismUnaffectedByPanicMachinery: the panic-isolation path
// must not perturb healthy searches (same seeds, same results as before).
func TestSearchDeterminismUnaffectedByPanicMachinery(t *testing.T) {
	a := search(t, 5, quadraticTarget(), Params{PopulationSize: 16, Generations: 6, Seed: 77, Workers: 3})
	b := search(t, 5, quadraticTarget(), Params{PopulationSize: 16, Generations: 6, Seed: 77, Workers: 1})
	if a.Best.Spec.String() != b.Best.Spec.String() || math.Float64bits(a.Best.Fitness) != math.Float64bits(b.Best.Fitness) {
		t.Errorf("worker-count-dependent result: %v vs %v", a.Best, b.Best)
	}
}
