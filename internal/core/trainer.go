package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hsmodel/internal/family"
	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
)

// The per-application fitness evaluation of the paper's pseudocode
// (Section 3.3):
//
//	foreach software s in S:
//	    split P_s into training T_s, validation V_s
//	    fit m using {P_-s, T_s} x w
//	    software fitness f_s = m's accuracy on V_s
//	model fitness f_m = mean over s of f_s
//
// plus family.TermPenalty per design column.
const (
	// trainFrac is the fraction of each application's rows in T_s.
	trainFrac = 0.7
	// trainWeight is the w applied to T_s rows in the weighted fit.
	trainWeight = 2
)

// FitnessConfig determinizes the per-application fitness splits.
type FitnessConfig struct {
	// Seed determinizes the splits.
	Seed uint64
}

// Trainer is the training half of the paper's system model: it owns the
// accumulated sparse profiles (the paper's P) and the one training run,
// Train, which walks the degradation ladder (a selection round, then the
// stepwise search). Every successful run publishes an immutable Snapshot
// through one atomic Publication record (see Published), and every run
// leaves its record in Report. Predictions, evaluation and persistence are
// the Snapshot's: callers read m.Snapshot() once and ask it, lock-free, so
// the model keeps answering queries while Train re-specifies it — the
// always-available behavior the Section 3.2–3.3 update protocol assumes.
//
// Configuration fields (Search, SearchTimeout, Fitness, Stabilize,
// LogResponse, WrapEvaluator, ShardLen, Families) are set before training
// begins and must not be mutated concurrently with a training run. Sample
// mutation goes through AddSamples/SetSamples. Each training run builds its
// own featurized evaluator from the store it captures and drops it when the
// run returns, so no run ever trains against stale basis columns and an
// idle trainer holds no evaluator memory.
//
// Concurrency contract: AddSamples, SetSamples, Samples, NumSamples,
// Snapshot, Published and Report are safe to call while a Train run is in
// flight. Training runs serialize among themselves on an internal mutex,
// but they do NOT hold the sample-store lock while searching: a run
// captures an immutable featurized evaluator at its start, searches against
// it lock-free, and re-acquires the lock only to publish results. Samples
// added mid-run therefore do not block behind the search and take effect at
// the next Train — the streaming-profiles behavior the serving layer
// (internal/serve) relies on.
//
// Consistency contract: a training run, both ladder rungs included, fits
// against exactly one captured sample-store version. Samples that arrive
// after the capture are all-or-nothing: they are never half-included in the
// published model, and the TrainReport records the version (SampleVersion)
// and row count (SampleRows) actually trained against so callers can audit
// what the served snapshot reflects.
type Trainer struct {
	// Search configures the genetic heuristic.
	Search genetic.Params
	// SearchTimeout bounds each run's selection round; when it expires the
	// run falls to the stepwise rung. 0 means no deadline beyond the
	// caller's context.
	SearchTimeout time.Duration
	// Fitness configures per-application splits and weights.
	Fitness FitnessConfig
	// Stabilize applies ladder-of-powers variance stabilization (on by
	// default through NewTrainer; the ablation bench turns it off).
	Stabilize bool
	// LogResponse fits log CPI (on by default through NewTrainer).
	LogResponse bool
	// WrapEvaluator, when non-nil, wraps the fitness evaluator before it is
	// handed to the search. It exists as a seam for fault injection and
	// instrumentation; production callers leave it nil.
	WrapEvaluator func(genetic.Evaluator) genetic.Evaluator
	// ShardLen is recorded in published snapshots (and therefore in saved
	// model files) so a loaded model profiles new shards consistently;
	// 0 means DefaultShardLen.
	ShardLen int
	// Families lists the model families every training run selects among:
	// each is fitted against the captured evaluator state, scored on the
	// shared validation rows, and the winner is published (the run's
	// TrainReport carries every family's score). Empty Families means the
	// reference spline family alone — the paper's genetic spline search.
	Families []family.Family

	trainMu    sync.Mutex // serializes training runs; never held with mu below
	mu         sync.Mutex // guards samples, version, report, population
	samples    []Sample
	version    uint64               // bumped by every sample mutation
	report     TrainReport          // the most recent run's record
	population []genetic.Individual // final population, for warm-started updates

	pub atomic.Pointer[Publication] // written only by publish
}

// Publication is one publish of a trainer's served model: the snapshot, the
// trainer's generation counter at that publish (1 for the first, +1 for
// every later one — either rung of a training run and Adopt alike), and
// when it happened. The three are swapped in as one atomic record, so a
// reader never pairs a snapshot with another publish's generation.
type Publication struct {
	Snapshot   *Snapshot
	Generation uint64
	At         time.Time
}

// NewTrainer returns a trainer with the paper's defaults.
func NewTrainer(samples []Sample) *Trainer {
	return &Trainer{
		samples:     samples,
		Stabilize:   true,
		LogResponse: true,
	}
}

// Snapshot returns the currently served model snapshot, or nil before the
// first successful training run. The read is lock-free; the returned
// snapshot is immutable and remains valid (and consistent) regardless of
// concurrent retraining.
func (m *Trainer) Snapshot() *Snapshot { return m.Published().Snapshot }

// Published returns the current publication record: the served snapshot with
// its generation and publish time. Before the first publish it is the zero
// Publication (nil snapshot, generation 0). The read is lock-free.
func (m *Trainer) Published() Publication {
	if p := m.pub.Load(); p != nil {
		return *p
	}
	return Publication{}
}

// Adopt publishes an externally produced snapshot (for example one returned
// by LoadSnapshot, or a lifecycle candidate) as the served model.
func (m *Trainer) Adopt(s *Snapshot) { m.publish(s) }

// publish is the one writer of the served model: it swaps in a new
// publication record one generation past the current one. Training runs
// serialize on trainMu but Adopt does not, so the swap is a compare-and-swap
// loop — two concurrent publishes always get distinct generations.
func (m *Trainer) publish(s *Snapshot) {
	for {
		prev := m.pub.Load()
		//hslint:ignore determinism publish time is provenance for /metrics and the model route, never an input to a fit or search
		next := &Publication{Snapshot: s, Generation: 1, At: time.Now()}
		if prev != nil {
			next.Generation = prev.Generation + 1
		}
		if m.pub.CompareAndSwap(prev, next) {
			return
		}
	}
}

// Population returns the final genetic population from the last search.
func (m *Trainer) Population() []genetic.Individual {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.population
}

// Samples returns a copy of the accumulated profile store.
func (m *Trainer) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Sample(nil), m.samples...)
}

// NumSamples returns the profile-store size.
func (m *Trainer) NumSamples() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.samples)
}

// StoreVersion returns the sample-store mutation counter: it advances on
// every AddSamples/SetSamples. Comparing it against TrainReport.SampleVersion
// tells whether the served model reflects the current store.
func (m *Trainer) StoreVersion() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// MaxStoreRows caps the profile store AddSamples grows. It sits above every
// store the tree builds; the largest, Paper scale, holds 2,520 rows.
const MaxStoreRows = 1 << 14

// ErrStoreFull is returned by AddSamples for a batch that would take the
// store past MaxStoreRows.
var ErrStoreFull = errors.New("core: profile store full")

// AddSamples appends new profiles to the store (they take effect at the next
// Train, which featurizes the full store). A batch that would take the store
// past MaxStoreRows is refused whole with ErrStoreFull, leaving the store and
// StoreVersion unchanged.
func (m *Trainer) AddSamples(samples []Sample) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples)+len(samples) > MaxStoreRows {
		return fmt.Errorf("%w: %d rows plus %d exceed %d", ErrStoreFull, len(m.samples), len(samples), MaxStoreRows)
	}
	m.samples = append(m.samples, samples...)
	m.version++
	return nil
}

// SetSamples replaces the profile store (it takes effect at the next Train).
// The caller owns the size of the store it sets; MaxStoreRows bounds only
// AddSamples. Mutating samples previously returned by Samples has no effect
// on training; all sample mutation must go through AddSamples or SetSamples.
func (m *Trainer) SetSamples(samples []Sample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples = samples
	m.version++
}

// ErrNoSamples is returned by Train with an empty profile store.
var ErrNoSamples = errors.New("core: no samples to train on")

// FitPathStats is Report().Gram: the latest run's Gram-layer counters.
func (m *Trainer) FitPathStats() regress.GramStats { return m.Report().Gram }

// evaluator implements genetic.Evaluator with the paper's inner loops. It
// featurizes the dataset once (cached basis columns shared by every
// candidate fit), layers a Gram cache over those columns so each candidate
// fit is an O(p³) normal-equation solve instead of an O(n·p²) QR pass, and
// precomputes the per-application row split so all candidate models are
// scored on identical data. It is immutable after construction (the Gram
// cache's internal memo is concurrency-safe) and safe for the search's
// concurrent fitness workers.
type evaluator struct {
	fz      *regress.Featurizer
	gc      *regress.GramCache
	ds      *regress.Dataset
	valRows [][]int // validation rows per app, in ascending app ID order
	allVal  []int   // family.ValOrder of valRows, for batched design gather
	weights []float64

	seed        uint64 // FitnessConfig.Seed the splits were drawn from
	stabilize   bool
	logResponse bool
}

func newEvaluator(ds *regress.Dataset, fc FitnessConfig, stabilize, logResponse bool) (*evaluator, error) {
	fz, err := regress.NewFeaturizer(ds, stabilize)
	if err != nil {
		return nil, err
	}
	ev := &evaluator{fz: fz, ds: ds, seed: fc.Seed, stabilize: stabilize, logResponse: logResponse}

	// Deterministic split of each application's rows into T_s / V_s.
	byApp := make(map[int][]int)
	for r, g := range ds.Group {
		byApp[g] = append(byApp[g], r)
	}
	apps := make([]int, 0, len(byApp))
	for g := range byApp {
		apps = append(apps, g)
	}
	sort.Ints(apps)

	ev.weights = make([]float64, ds.NumRows())
	for i := range ev.weights {
		ev.weights[i] = 1
	}
	src := rng.New(fc.Seed ^ 0x5eed5eed)
	for _, g := range apps {
		rows := byApp[g]
		perm := src.Perm(len(rows))
		cut := int(float64(len(rows)) * trainFrac)
		var val []int
		for k, pi := range perm {
			r := rows[pi]
			if k < cut {
				ev.weights[r] = trainWeight // T_s rows, weighted w
			} else {
				val = append(val, r)
				ev.weights[r] = 0 // V_s rows excluded from every fit
			}
		}
		sort.Ints(val)
		ev.valRows = append(ev.valRows, val)
	}
	ev.allVal = family.ValOrder(ev.valRows, ds.NumRows())

	// The Gram layer bakes the response transform and split weights into its
	// cached cross-products. It fails (a non-positive CPI under LogResponse)
	// exactly when every candidate fit would, so the run fails here.
	ev.gc, err = regress.NewGramCache(fz, regress.Options{LogResponse: logResponse, Weights: ev.weights})
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// fitInput is the family fitting contract over the evaluator's dataset,
// featurizer and weighted splits: every family fitted from it sees the same
// rows under the same per-application splits. fitness is the evaluator the
// search scores candidates with (ev itself, or a wrapper around it).
func (ev *evaluator) fitInput(fitness genetic.Evaluator, search genetic.Params) family.FitInput {
	return family.FitInput{
		NumVars:     ev.ds.NumVars(),
		Dataset:     ev.ds,
		Featurizer:  ev.fz,
		Evaluator:   fitness,
		Search:      search,
		LogResponse: ev.logResponse,
		Stabilize:   ev.stabilize,
		Seed:        ev.seed,
		Weights:     ev.weights,
		ValRows:     ev.valRows,
	}
}

// Fitness is the Section 3.3 score (family.ValScore) of spec fitted on the
// weighted splits, plus the term penalty. Lower is better; a failed fit
// scores family.FailedFit.
func (ev *evaluator) Fitness(spec regress.Spec) float64 {
	model, err := ev.gc.Fit(spec)
	if err != nil {
		return family.FailedFit
	}
	// One gathered design over every validation row (their weight in the fit
	// is 0, but the cached basis columns are unweighted), predicted in one
	// batch.
	valDesign := ev.fz.DesignRows(spec, ev.allVal)
	pred := make([]float64, valDesign.Rows)
	model.PredictDesign(valDesign, pred)
	score := family.ValScore(pred, ev.ds.Y, ev.valRows)
	return score + family.TermPenalty*float64(len(model.Coef))
}

// Train is the one training run, the paper's re-specify-and-refit step
// (Section 3.3). It captures one sample-store version and walks the
// degradation ladder on it:
//
//  1. A selection round over the trainer's Families (the genetic spline
//     search alone by default), warm-started from the population the
//     previous run left (a fresh trainer's first run is a cold start) and
//     bounded by SearchTimeout when it is set.
//  2. If the round fails and ctx is still alive, the forward stepwise search
//     at a fixed budget of stepwiseBudget evaluations, on the same capture.
//
// Train returns nil exactly when one of the two rungs published. Otherwise
// its error wraps each rung's error, so errors.Is matches ErrNoSamples,
// ErrAllFamiliesFailed, genetic.ErrEvalPanic and genetic.ErrCancelled, and
// the served snapshot is untouched: the trainer keeps serving its last-good
// model. Report describes the run either way.
//
// Train is safe to call concurrently with AddSamples and predictions (see
// the Trainer type comment); concurrent training runs serialize.
func (m *Trainer) Train(ctx context.Context) error {
	m.trainMu.Lock()
	defer m.trainMu.Unlock()
	var rep TrainReport
	cap, err := m.captureEvaluator()
	if err == nil {
		err = m.walkLadder(ctx, cap, &rep)
	} else {
		rep.GeneticErr = err
	}
	// Only the Gram counters outlive the run, never the evaluator.
	if cap.ev != nil {
		rep.Gram = cap.ev.gc.Stats()
	}
	m.mu.Lock()
	m.report = rep
	m.mu.Unlock()
	return err
}

// Report returns the latest training run's report, failed runs included, or
// the zero report before the first run finishes.
func (m *Trainer) Report() TrainReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.report
}

// capturedEval pins a training run to one sample-store version: the
// featurized evaluator, the version counter it was built from, and the row
// count it covers. Both rungs of a run fit against the same capture, so
// late-arriving samples are never half-included.
type capturedEval struct {
	ev      *evaluator
	version uint64
	rows    int
}

// captureEvaluator featurizes the current store into a new evaluator owned
// by one training run, together with the store version it reflects.
// Callers must hold trainMu (and must NOT hold mu).
func (m *Trainer) captureEvaluator() (capturedEval, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) == 0 {
		return capturedEval{}, ErrNoSamples
	}
	ev, err := newEvaluator(ToDataset(m.samples), m.Fitness, m.Stabilize, m.LogResponse)
	if err != nil {
		return capturedEval{}, fmt.Errorf("core: featurizing samples: %w", err)
	}
	return capturedEval{ev: ev, version: m.version, rows: len(m.samples)}, nil
}

// fitInput assembles the family fitting contract of one training run: the
// captured evaluator (wrapped by WrapEvaluator when set) and the search
// params warm-started from initial, so every family in the run fits the
// same episode. The stepwise rung fits through it too and ignores the
// search params.
func (m *Trainer) fitInput(initial []regress.Spec, base *evaluator) family.FitInput {
	var ev genetic.Evaluator = base
	if m.WrapEvaluator != nil {
		ev = m.WrapEvaluator(ev)
	}
	params := m.Search
	params.Initial = initial
	return base.fitInput(ev, params)
}

// train is the top rung: one selection round over m.Families (the spline
// family alone when none are listed), warm-started from m.population and
// publishing the winner on RungGenetic. Callers must hold m.trainMu (and
// must NOT hold m.mu) and pass the evaluator capture the run fits against:
// the search runs without any lock, and results are published under m.mu
// (or through publish) at the end, so sample mutation and predictions
// proceed during the search. It records the round in rep: its generations
// and fit errors always, the rung, winner and scores when it published.
func (m *Trainer) train(ctx context.Context, cap capturedEval, rep *TrainReport) error {
	m.mu.Lock()
	var initial []regress.Spec
	for _, ind := range m.population {
		initial = append(initial, ind.Spec)
	}
	m.mu.Unlock()

	// The genetic search calls OnGeneration on this goroutine, between
	// generations, so the run's history needs no lock.
	in := m.fitInput(initial, cap.ev)
	userOnGen := in.Search.OnGeneration
	in.Search.OnGeneration = func(gs genetic.GenStats) {
		rep.History = append(rep.History, gs)
		if userOnGen != nil {
			userOnGen(gs)
		}
	}
	sel, err := runSelection(ctx, m.Families, in)
	if len(sel.Errors) > 0 {
		rep.FamilyErrors = sel.Errors
	}
	// Even a failed or cancelled round's partial population is kept: it
	// warm-starts the next attempt.
	if sel.Population != nil {
		m.mu.Lock()
		m.population = sel.Population
		m.mu.Unlock()
	}
	if err != nil {
		return err
	}
	m.publish(newSnapshot(sel.Winner, sel.Model, sel.Scores, m.ShardLen, RungGenetic, cap.rows))
	rep.Rung, rep.Family, rep.FamilyScores = RungGenetic, sel.Winner, sel.Scores
	return nil
}
