// Package genetic implements the paper's automated modeling heuristic
// (Sections 2.4 and 3.4): a genetic search over model specifications.
//
// Each chromosome encodes, per variable, a genetic value 0–4 (excluded,
// linear, quadratic, cubic, or piecewise-cubic with three inflection
// points) plus a dynamically sized list of pairwise interactions i–j.
// Populations evolve under three crossover operators and two mutation
// operators, each applied with the paper's experimentally effective
// probabilities (12.5% per crossover, 5% per mutation):
//
//	C1: single variable randomly exchanged between two chromosomes
//	C2: interaction randomly exchanged between two chromosomes
//	C3: interaction randomly created using single variables from two chromosomes
//	M1: interaction randomly changed for a chromosome
//	M2: single variable randomly changed for a chromosome
//
// The best quarter of each generation survives; the rest of the next
// generation is bred by crossover and mutation. Fitness evaluation — the
// inner loops of the paper's pseudocode — is delegated to an Evaluator and
// parallelized across a worker pool (the paper used R's doMC/Multicore; a
// generation with n candidate models is embarrassingly parallel).
package genetic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
)

// Typed failures of a search. Both are returned wrapped, alongside a partial
// Result, so callers can degrade gracefully (see core's degradation ladder).
var (
	// ErrEvalPanic reports that an Evaluator panicked during fitness
	// evaluation. The panic is recovered inside the worker pool so a bad
	// candidate model cannot kill the process.
	ErrEvalPanic = errors.New("genetic: evaluator panicked")
	// ErrCancelled reports that the search context was cancelled or its
	// deadline expired before the configured generations completed.
	ErrCancelled = errors.New("genetic: search cancelled")
)

// Evaluator scores a model specification. Fitness is an error measure:
// LOWER IS BETTER (the paper uses mean per-application validation error).
// Implementations must be safe for concurrent use.
type Evaluator interface {
	Fitness(spec regress.Spec) float64
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(spec regress.Spec) float64

// Fitness implements Evaluator.
func (f EvaluatorFunc) Fitness(spec regress.Spec) float64 { return f(spec) }

// The paper's operator settings (Section 2.4), fixed for every search.
const (
	// elitePct is the fraction of each generation that survives unchanged.
	elitePct = 0.25
	// crossoverProb is the probability of each crossover operator (C1-C3).
	crossoverProb = 0.125
	// mutationProb is the probability of each mutation operator (M1, M2).
	mutationProb = 0.05
	// maxInteractions caps a chromosome's interaction list.
	maxInteractions = 24
	// tournamentSize is the number of individuals a parent-selection
	// tournament draws.
	tournamentSize = 3
)

// Params configures the search. Zero fields take the documented defaults.
type Params struct {
	PopulationSize int // default 60
	Generations    int // default 20, where the paper sees diminishing returns
	Seed           uint64
	Workers        int // parallel fitness evaluations; default GOMAXPROCS
	// Initial seeds the starting population (model updates warm-start from
	// the previous population, Section 3.3). Remaining slots are random.
	Initial []regress.Spec
	// OnGeneration, if non-nil, is called after each generation with that
	// generation's statistics (for convergence reporting, Figure 5).
	OnGeneration func(GenStats)
}

func (p Params) withDefaults() Params {
	if p.PopulationSize <= 0 {
		p.PopulationSize = 60
	}
	if p.Generations <= 0 {
		p.Generations = 20
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// Individual is a scored chromosome.
type Individual struct {
	Spec    regress.Spec
	Fitness float64
}

// GenStats summarizes one generation.
type GenStats struct {
	Gen   int
	Best  float64
	Mean  float64
	Evals int // cumulative fitness evaluations (cache misses)
}

// Result reports a completed search.
type Result struct {
	Best       Individual
	Population []Individual // final generation, best first
	History    []GenStats
	Evals      int
}

// Search runs the genetic algorithm over specs with numVars variables.
//
// Cancellation and failure are non-fatal: when ctx is cancelled or its
// deadline expires, the search stops within the current generation and
// returns the best-so-far population as a partial Result plus an error
// wrapping ErrCancelled; when an Evaluator panics the panic is recovered and
// Search returns a partial Result plus an error wrapping ErrEvalPanic. The
// returned Result is never nil, but after an error only individuals with
// finite fitness have been scored — unevaluated candidates carry +Inf and
// sort last.
func Search(ctx context.Context, numVars int, eval Evaluator, p Params) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p = p.withDefaults()
	src := rng.New(p.Seed)
	cache := newFitnessCache(eval, p.Workers)

	pop := make([]Individual, 0, p.PopulationSize)
	for _, s := range p.Initial {
		if len(pop) == p.PopulationSize {
			break
		}
		if s.Validate(numVars) == nil {
			pop = append(pop, Individual{Spec: s.Clone()})
		}
	}
	for len(pop) < p.PopulationSize {
		pop = append(pop, Individual{Spec: randomSpec(numVars, src)})
	}

	res := &Result{}
	// scored is the most recent fully evaluated, sorted population — what a
	// cancelled search hands back when the current generation is unscored.
	var scored []Individual
	partial := func(g int, cause error) (*Result, error) {
		if scored != nil {
			pop = scored
		} else {
			// Nothing was ever scored: mark everything unevaluated so no
			// zero-fitness chromosome masquerades as a best individual.
			for i := range pop {
				pop[i].Fitness = math.Inf(1)
			}
			sortPopulation(pop)
		}
		res.Population = pop
		res.Best = pop[0]
		res.Evals = cache.misses()
		return res, fmt.Errorf("generation %d of %d: %w", g, p.Generations, cause)
	}

	for g := 0; g < p.Generations; g++ {
		if err := ctx.Err(); err != nil {
			return partial(g, fmt.Errorf("%w: %w", ErrCancelled, err))
		}
		if err := cache.scoreAll(ctx, pop); err != nil {
			// pop is partially scored: evaluated individuals (including
			// cached elites) keep real fitness, the rest carry +Inf.
			sanitizeFitness(pop)
			sortPopulation(pop)
			scored = pop
			return partial(g, err)
		}
		sanitizeFitness(pop)
		sortPopulation(pop)
		scored = pop
		var sum float64
		for _, ind := range pop {
			sum += ind.Fitness
		}
		gs := GenStats{Gen: g, Best: pop[0].Fitness, Mean: sum / float64(len(pop)), Evals: cache.misses()}
		res.History = append(res.History, gs)
		if p.OnGeneration != nil {
			p.OnGeneration(gs)
		}
		if g == p.Generations-1 {
			break
		}

		// Elitist survival; breed the remainder.
		elite := int(float64(p.PopulationSize) * elitePct)
		if elite < 1 {
			elite = 1
		}
		next := make([]Individual, 0, p.PopulationSize)
		for i := 0; i < elite; i++ {
			next = append(next, Individual{Spec: pop[i].Spec.Clone(), Fitness: pop[i].Fitness})
		}
		for len(next) < p.PopulationSize {
			a := tournament(pop, src)
			b := tournament(pop, src)
			child := breed(a.Spec, b.Spec, src)
			next = append(next, Individual{Spec: child})
		}
		pop = next
	}

	res.Population = pop
	res.Best = pop[0]
	res.Evals = cache.misses()
	return res, nil
}

// sanitizeFitness maps NaN fitness to +Inf. NaN violates the ordering
// contract of sortPopulation's comparator (NaN compares false against
// everything, so sort.SliceStable would silently corrupt survivor
// selection); +Inf keeps degenerate candidates strictly last.
func sanitizeFitness(pop []Individual) {
	for i := range pop {
		if math.IsNaN(pop[i].Fitness) {
			pop[i].Fitness = math.Inf(1)
		}
	}
}

// sortPopulation orders by fitness ascending with a deterministic tie-break
// on the spec rendering, so searches are reproducible across runs.
func sortPopulation(pop []Individual) {
	sort.SliceStable(pop, func(i, j int) bool {
		if pop[i].Fitness != pop[j].Fitness { //hslint:ignore floateq exact ordering comparator over clamped (NaN-free) fitness values; a tolerance here would break sort transitivity
			return pop[i].Fitness < pop[j].Fitness
		}
		return pop[i].Spec.String() < pop[j].Spec.String()
	})
}

// tournament picks the best of tournamentSize random individuals.
func tournament(pop []Individual, src *rng.Source) Individual {
	best := pop[src.Intn(len(pop))]
	for i := 1; i < tournamentSize; i++ {
		c := pop[src.Intn(len(pop))]
		if c.Fitness < best.Fitness {
			best = c
		}
	}
	return best
}

// randomSpec draws a random chromosome. Roughly a third of variables start
// excluded so initial models stay small enough to fit on sparse data.
func randomSpec(numVars int, src *rng.Source) regress.Spec {
	s := regress.Spec{Codes: make([]regress.TransformCode, numVars)}
	for v := range s.Codes {
		if src.Bool(0.35) {
			s.Codes[v] = regress.Excluded
		} else {
			s.Codes[v] = regress.TransformCode(1 + src.Intn(int(regress.NumTransformCodes)-1))
		}
	}
	ensureNonEmpty(&s, src)
	n := src.Intn(numVars/2 + 1)
	if n > maxInteractions {
		n = maxInteractions
	}
	for i := 0; i < n; i++ {
		addInteraction(&s, randomInteraction(numVars, src), maxInteractions)
	}
	return s
}

// randomInteraction draws a random pair of distinct variables.
func randomInteraction(numVars int, src *rng.Source) regress.Interaction {
	i := src.Intn(numVars)
	j := src.Intn(numVars - 1)
	if j >= i {
		j++
	}
	return regress.Interaction{I: i, J: j}.Canon()
}

// addInteraction appends in if absent and under the cap, reporting success.
func addInteraction(s *regress.Spec, in regress.Interaction, cap int) bool {
	in = in.Canon()
	if len(s.Interactions) >= cap {
		return false
	}
	for _, e := range s.Interactions {
		if e.Canon() == in {
			return false
		}
	}
	s.Interactions = append(s.Interactions, in)
	return true
}

// ensureNonEmpty guarantees at least one included variable.
func ensureNonEmpty(s *regress.Spec, src *rng.Source) {
	for _, c := range s.Codes {
		if c != regress.Excluded {
			return
		}
	}
	s.Codes[src.Intn(len(s.Codes))] = regress.Linear
}

// breed clones parent a and applies the paper's crossover and mutation
// operators against parent b.
func breed(a, b regress.Spec, src *rng.Source) regress.Spec {
	child := a.Clone()
	numVars := len(child.Codes)

	// C1: single variable exchanged between chromosomes.
	if src.Bool(crossoverProb) {
		v := src.Intn(numVars)
		child.Codes[v] = b.Codes[v]
	}
	// C2: interaction exchanged between chromosomes.
	if src.Bool(crossoverProb) && len(child.Interactions) > 0 && len(b.Interactions) > 0 {
		k := src.Intn(len(child.Interactions))
		child.Interactions[k] = b.Interactions[src.Intn(len(b.Interactions))].Canon()
		dedupeInteractions(&child)
	}
	// C3: interaction created from single variables of the two parents.
	if src.Bool(crossoverProb) {
		va := randomIncludedVar(a, src)
		vb := randomIncludedVar(b, src)
		if va >= 0 && vb >= 0 && va != vb {
			addInteraction(&child, regress.Interaction{I: va, J: vb}, maxInteractions)
		}
	}
	// M1: interaction randomly changed.
	if src.Bool(mutationProb) && len(child.Interactions) > 0 {
		k := src.Intn(len(child.Interactions))
		child.Interactions[k] = randomInteraction(numVars, src)
		dedupeInteractions(&child)
	}
	// M2: single variable randomly changed.
	if src.Bool(mutationProb) {
		v := src.Intn(numVars)
		child.Codes[v] = regress.TransformCode(src.Intn(int(regress.NumTransformCodes)))
	}

	ensureNonEmpty(&child, src)
	return child
}

// randomIncludedVar returns a random non-excluded variable index of s, or -1.
func randomIncludedVar(s regress.Spec, src *rng.Source) int {
	var included []int
	for v, c := range s.Codes {
		if c != regress.Excluded {
			included = append(included, v)
		}
	}
	if len(included) == 0 {
		return -1
	}
	return included[src.Intn(len(included))]
}

// dedupeInteractions removes duplicate pairs, keeping first occurrences.
func dedupeInteractions(s *regress.Spec) {
	seen := make(map[regress.Interaction]bool, len(s.Interactions))
	out := s.Interactions[:0]
	for _, in := range s.Interactions {
		c := in.Canon()
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	s.Interactions = out
}

// fitnessCache memoizes evaluations and fans them out across workers.
type fitnessCache struct {
	eval    Evaluator
	workers int

	mu    sync.Mutex
	known map[string]float64
	miss  int
}

// maxKnownSpecs caps the memo table. A cache entry is pure memoization —
// fitness is deterministic per spec — so when a long search (or a re-specify
// loop reusing one cache) crosses the cap the table is flushed wholesale and
// rebuilt; recomputation is exact, only the miss counter moves. The cap is
// far above a single search's working set (generations x population), so
// within one search the flush never fires and convergence is untouched.
const maxKnownSpecs = 1 << 15

func newFitnessCache(eval Evaluator, workers int) *fitnessCache {
	return &fitnessCache{eval: eval, workers: workers, known: make(map[string]float64)}
}

// specKey renders a spec to a canonical cache key. It runs once per
// chromosome per generation on the fitness hot path, so it builds the key in
// one reused byte buffer (strconv appends, no fmt) and canonicalizes the
// interaction order with an in-place insertion sort on stack scratch instead
// of an allocated slice and sort.Slice closure.
func specKey(s regress.Spec) string {
	buf := make([]byte, 0, 2*len(s.Codes)+8*len(s.Interactions))
	for _, c := range s.Codes {
		buf = strconv.AppendUint(buf, uint64(c), 10)
		buf = append(buf, ',')
	}
	var stack [maxInteractions]regress.Interaction
	ins := stack[:0]
	if len(s.Interactions) > len(stack) {
		ins = make([]regress.Interaction, 0, len(s.Interactions))
	}
	for _, in := range s.Interactions {
		c := in.Canon()
		pos := len(ins)
		ins = append(ins, c)
		for pos > 0 && (ins[pos-1].I > c.I || (ins[pos-1].I == c.I && ins[pos-1].J > c.J)) {
			ins[pos] = ins[pos-1]
			pos--
		}
		ins[pos] = c
	}
	for _, in := range ins {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(in.I), 10)
		buf = append(buf, '-')
		buf = strconv.AppendInt(buf, int64(in.J), 10)
	}
	return string(buf)
}

func (fc *fitnessCache) misses() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.miss
}

// safeFitness evaluates one spec with panic isolation: a panicking Evaluator
// yields +Inf fitness and an error wrapping ErrEvalPanic instead of killing
// the process. NaN fitness (singular fits, corrupt profiles) is sanitized to
// +Inf so downstream sorting keeps a strict weak order.
func safeFitness(eval Evaluator, spec regress.Spec) (f float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			f = math.Inf(1)
			err = fmt.Errorf("%w: %v", ErrEvalPanic, r)
		}
	}()
	f = eval.Fitness(spec)
	if math.IsNaN(f) {
		f = math.Inf(1)
	}
	return f, nil
}

// scoreAll fills in Fitness for every individual, evaluating cache misses in
// parallel. On context cancellation or an evaluator panic it stops
// dispatching, waits for in-flight evaluations, marks every unevaluated
// individual +Inf, and returns the first error; already-evaluated
// individuals (and cache hits, which include the elites) keep real fitness.
func (fc *fitnessCache) scoreAll(ctx context.Context, pop []Individual) error {
	type job struct {
		idx int
		key string
	}
	var jobs []job
	fc.mu.Lock()
	for i := range pop {
		key := specKey(pop[i].Spec)
		if f, ok := fc.known[key]; ok {
			pop[i].Fitness = f
		} else {
			jobs = append(jobs, job{idx: i, key: key})
		}
	}
	fc.mu.Unlock()
	if len(jobs) == 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrCancelled, err)
		}
		return nil
	}

	// Deduplicate identical pending specs so each is evaluated once.
	pending := make(map[string][]int)
	var order []string
	for _, j := range jobs {
		if _, ok := pending[j.key]; !ok {
			order = append(order, j.key)
		}
		pending[j.key] = append(pending[j.key], j.idx)
	}

	sem := make(chan struct{}, fc.workers)
	var wg sync.WaitGroup
	results := make([]float64, len(order))
	done := make([]bool, len(order)) // completed without panic
	var failMu sync.Mutex
	var failErr error
	fail := func(err error) {
		failMu.Lock()
		if failErr == nil {
			failErr = err
		}
		failMu.Unlock()
	}
	failed := func() bool {
		failMu.Lock()
		defer failMu.Unlock()
		return failErr != nil
	}
	for k, key := range order {
		if err := ctx.Err(); err != nil {
			fail(fmt.Errorf("%w: %w", ErrCancelled, err))
		}
		if failed() {
			break // stop dispatching; in-flight workers drain below
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(k int, spec regress.Spec) {
			defer wg.Done()
			defer func() { <-sem }()
			f, err := safeFitness(fc.eval, spec)
			if err != nil {
				fail(err)
				return
			}
			results[k] = f
			done[k] = true
		}(k, pop[pending[key][0]].Spec)
	}
	wg.Wait()

	fc.mu.Lock()
	for k, key := range order {
		if !done[k] {
			// Unevaluated (or panicked): rank strictly last, and do not
			// cache — the fault may be transient.
			for _, idx := range pending[key] {
				pop[idx].Fitness = math.Inf(1)
			}
			continue
		}
		if len(fc.known) >= maxKnownSpecs {
			clear(fc.known) // deterministic flush; entries are pure memoization
		}
		fc.known[key] = results[k]
		fc.miss++
		for _, idx := range pending[key] {
			pop[idx].Fitness = results[k]
		}
	}
	fc.mu.Unlock()
	failMu.Lock()
	defer failMu.Unlock()
	return failErr
}
