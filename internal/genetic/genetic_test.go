package genetic

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
)

// search runs Search with a background context and fails the test on error —
// the common case for tests exercising healthy evaluators.
func search(t *testing.T, numVars int, eval Evaluator, p Params) *Result {
	t.Helper()
	res, err := Search(context.Background(), numVars, eval, p)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	return res
}

// quadraticTarget builds an evaluator whose optimum is a known spec: it
// rewards including variables 0 and 1 with a quadratic-or-better transform
// and the 0-1 interaction, and penalizes model size. The landscape is smooth
// enough for the GA to find quickly and strict enough that random specs
// rarely score well.
func quadraticTarget() Evaluator {
	return EvaluatorFunc(func(s regress.Spec) float64 {
		score := 3.0
		if s.Codes[0] >= regress.Quadratic {
			score--
		}
		if s.Codes[1] != regress.Excluded {
			score--
		}
		for _, in := range s.Interactions {
			if in.Canon() == (regress.Interaction{I: 0, J: 1}) {
				score--
				break
			}
		}
		// Parsimony pressure.
		return score + 0.01*float64(s.NumTerms())
	})
}

func TestSearchConvergesToKnownOptimum(t *testing.T) {
	res := search(t, 6, quadraticTarget(), Params{
		PopulationSize: 40, Generations: 25, Seed: 7,
	})
	best := res.Best
	if best.Spec.Codes[0] < regress.Quadratic {
		t.Errorf("var 0 code %v, want >= quadratic", best.Spec.Codes[0])
	}
	if best.Spec.Codes[1] == regress.Excluded {
		t.Error("var 1 excluded in best model")
	}
	found := false
	for _, in := range best.Spec.Interactions {
		if in.Canon() == (regress.Interaction{I: 0, J: 1}) {
			found = true
		}
	}
	if !found {
		t.Error("best model lacks the rewarded interaction")
	}
	if best.Fitness > 0.4 {
		t.Errorf("best fitness %v, want near 0 + parsimony", best.Fitness)
	}
}

func TestSearchDeterministicGivenSeed(t *testing.T) {
	a := search(t, 5, quadraticTarget(), Params{PopulationSize: 20, Generations: 8, Seed: 3, Workers: 4})
	b := search(t, 5, quadraticTarget(), Params{PopulationSize: 20, Generations: 8, Seed: 3, Workers: 1})
	if math.Float64bits(a.Best.Fitness) != math.Float64bits(b.Best.Fitness) {
		t.Errorf("same-seed searches differ: %v vs %v", a.Best.Fitness, b.Best.Fitness)
	}
	if a.Best.Spec.String() != b.Best.Spec.String() {
		t.Errorf("same-seed best specs differ:\n%s\n%s", a.Best.Spec, b.Best.Spec)
	}
}

func TestBestFitnessMonotone(t *testing.T) {
	// With elitism, per-generation best fitness never worsens.
	res := search(t, 8, quadraticTarget(), Params{PopulationSize: 30, Generations: 15, Seed: 11})
	prev := math.Inf(1)
	for _, gs := range res.History {
		if gs.Best > prev+1e-12 {
			t.Fatalf("generation %d best %v worse than previous %v", gs.Gen, gs.Best, prev)
		}
		prev = gs.Best
	}
	if len(res.History) != 15 {
		t.Errorf("history length %d", len(res.History))
	}
}

func TestFitnessCacheAvoidsRecomputation(t *testing.T) {
	var calls int64
	eval := EvaluatorFunc(func(s regress.Spec) float64 {
		atomic.AddInt64(&calls, 1)
		return 1
	})
	res := search(t, 4, eval, Params{PopulationSize: 25, Generations: 10, Seed: 5})
	// With constant fitness and elitism, identical specs recur constantly;
	// the cache must keep evaluations well below pop*generations.
	if int(calls) != res.Evals {
		t.Errorf("reported evals %d != actual calls %d", res.Evals, calls)
	}
	if int(calls) >= 25*10 {
		t.Errorf("cache ineffective: %d evaluations", calls)
	}
}

func TestBreedPreservesValidity(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		numVars := 2 + src.Intn(10)
		a := randomSpec(numVars, src)
		b := randomSpec(numVars, src)
		for i := 0; i < 10; i++ {
			child := breed(a, b, src)
			if child.Validate(numVars) != nil {
				return false
			}
			// No duplicate interactions.
			seen := map[regress.Interaction]bool{}
			for _, in := range child.Interactions {
				c := in.Canon()
				if seen[c] {
					return false
				}
				seen[c] = true
			}
			// At least one variable included.
			if child.NumTerms() == 0 {
				return false
			}
			a = child
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRandomSpecValid(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		numVars := 1 + src.Intn(20)
		s := randomSpec(numVars, src)
		return s.Validate(numVars) == nil && s.NumTerms() > 0
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestInitialPopulationSeedsSearch(t *testing.T) {
	// Seed with the known optimum: generation 0 should already contain it.
	opt := regress.Spec{Codes: make([]regress.TransformCode, 6)}
	opt.Codes[0] = regress.Quadratic
	opt.Codes[1] = regress.Linear
	opt.Interactions = []regress.Interaction{{I: 0, J: 1}}
	var gen0Best float64
	search(t, 6, quadraticTarget(), Params{
		PopulationSize: 20, Generations: 2, Seed: 9,
		Initial: []regress.Spec{opt},
		OnGeneration: func(gs GenStats) {
			if gs.Gen == 0 {
				gen0Best = gs.Best
			}
		},
	})
	if gen0Best > 0.2 {
		t.Errorf("warm start ignored: generation-0 best %v", gen0Best)
	}
}

func TestInteractionFrequencySymmetric(t *testing.T) {
	inds := []Individual{
		{Spec: regress.Spec{
			Codes:        make([]regress.TransformCode, 4),
			Interactions: []regress.Interaction{{I: 0, J: 2}, {I: 2, J: 0}, {I: 1, J: 3}},
		}},
	}
	freq := InteractionFrequency(inds, 4)
	if freq[0][2] != 2 || freq[2][0] != 2 {
		t.Errorf("canonical duplicates should both count: %v", freq)
	}
	if freq[1][3] != 1 || freq[3][1] != 1 {
		t.Errorf("matrix not symmetric: %v", freq)
	}
}

func TestTransformConsensus(t *testing.T) {
	mk := func(codes ...regress.TransformCode) Individual {
		return Individual{Spec: regress.Spec{Codes: codes}}
	}
	inds := []Individual{
		mk(regress.Linear, regress.Spline3),
		mk(regress.Linear, regress.Spline3),
		mk(regress.Cubic, regress.Excluded),
	}
	consensus := TransformConsensus(inds, 2)
	if consensus[0] != regress.Linear || consensus[1] != regress.Spline3 {
		t.Errorf("consensus = %v", consensus)
	}
	votes := TransformVote(inds, 2)
	if votes[0][int(regress.Linear)] != 2 || votes[1][int(regress.Excluded)] != 1 {
		t.Errorf("votes = %v", votes)
	}
}

func TestStepwiseImproves(t *testing.T) {
	res, err := Stepwise(context.Background(), 6, quadraticTarget(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness >= 3 {
		t.Errorf("stepwise made no progress: %v", res.Best.Fitness)
	}
	if res.Evals == 0 || res.Evals > 500 {
		t.Errorf("stepwise evals %d out of budget", res.Evals)
	}
	if res.Best.Spec.Validate(6) != nil {
		t.Error("stepwise produced invalid spec")
	}
}
