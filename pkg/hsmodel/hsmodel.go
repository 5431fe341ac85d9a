// Package hsmodel is the public API of the inferred hardware-software
// performance modeling system — the one import path external consumers need.
//
// It re-exports the stable surface of the internal engine (profiles, the
// hardware design space, the trainer, immutable served snapshots, metrics,
// and the update protocol) as type aliases, so values flow freely between
// the facade and the serving layer, and replaces struct-field configuration
// with functional options:
//
//	samples := collector.Collect(apps, 120, 1)
//	m := hsmodel.New(samples,
//	    hsmodel.WithSeed(7),
//	    hsmodel.WithGenerations(12),
//	    hsmodel.WithPopulation(36),
//	)
//	if err := m.Train(ctx); err != nil { ... }
//	cpi, err := m.Snapshot().PredictShard(x, hsmodel.Baseline())
//
// Train is the one training run: a selection round warm-started from the
// previous run's population, falling back to the stepwise search when the
// round fails (m.SearchTimeout bounds the round). It returns nil exactly
// when one of the two published; m.Report() says which, with the round's
// scores and generations, and a failed run leaves the served model as it
// was. Predictions, evaluation and Save are the served Snapshot's.
//
// The wire schema spoken by the hsserve HTTP service and the hsinfer CLI
// lives in wire.go; everything here is process-local API.
package hsmodel

import (
	"hsmodel/internal/core"
	"hsmodel/internal/family"
	"hsmodel/internal/genetic"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/lifecycle"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
)

// Core modeling types, aliased so facade and internal values interchange.
type (
	// Trainer owns the sparse profile store and the training machinery; it
	// publishes immutable Snapshots, which answer lock-free predictions. See
	// the type's method set for the full contract (AddSamples, Snapshot and
	// Report are safe concurrently with an in-flight Train).
	Trainer = core.Trainer
	// Snapshot is an immutable fitted model: the unit of serving and of
	// persistence (Save/LoadSnapshot).
	Snapshot = core.Snapshot
	// Sample is one sparse profile: shard characteristics, the architecture
	// it ran on, and the measured CPI.
	Sample = core.Sample
	// Characteristics holds the thirteen Table 1 software measures.
	Characteristics = profile.Characteristics
	// Config is one fully specified microarchitecture (Table 2).
	Config = hwspace.Config
	// Indices locates a Config as per-parameter discrete level indices.
	Indices = hwspace.Indices
	// Collector produces sparse profiles by simulating shards on sampled
	// architectures. ShardLen and ShardPool are its only fields; it keeps
	// no state between calls.
	Collector = core.Collector
	// FitnessConfig seeds the per-application fitness splits (Section 3.3).
	FitnessConfig = core.FitnessConfig
	// SearchParams configures the genetic model search.
	SearchParams = genetic.Params
	// GenStats summarizes one search generation (Figure 5 convergence).
	GenStats = genetic.GenStats
	// Metrics summarizes predictive accuracy the way the paper reports it.
	Metrics = regress.Metrics
	// UpdatePolicy governs the inductive update protocol (Sections 3.2-3.3).
	UpdatePolicy = core.UpdatePolicy
	// Decision reports what the update protocol concluded.
	Decision = core.Decision
	// TrainReport is the record of the latest Train (Trainer.Report): which
	// ladder rung produced the served model, what failed on the way down,
	// the selection round's scores and generations, and the fit counters.
	TrainReport = core.TrainReport
	// Rung identifies a degradation-ladder level.
	Rung = core.Rung
	// Lifecycle is the continuous-learning control loop: it watches submitted
	// profiles for drift, keeps bounded sample stores, retrains in shadow, and
	// promotes or rolls back candidates against the served snapshot.
	Lifecycle = lifecycle.Controller
	// LifecycleConfig tunes the control loop (drift detector, store bounds,
	// retrain and canary gates, seed); see NewLifecycle.
	LifecycleConfig = lifecycle.Config
	// LifecycleStatus is the loop's observable state (also the JSON body of
	// hsserve's GET /v2/models/{id}/lifecycle).
	LifecycleStatus = lifecycle.Status
	// DriftConfig tunes the EWMA+CUSUM drift detector.
	DriftConfig = lifecycle.DriftConfig
	// ModelFamily is one pluggable fitting strategy (Fit/Load); the engine
	// ships spline (the paper's reference), residual, and dal — see
	// DefaultFamilies and WithFamilies.
	ModelFamily = family.Family
	// FamilyModel is a fitted model of one family: the self-contained
	// predictor a Snapshot serves.
	FamilyModel = family.Model
	// FamilyDescription is the displayable summary of a fitted family model.
	FamilyDescription = family.Description
)

// Dimensions of the integrated space.
const (
	// NumVars is the integrated variable count (13 software + 13 hardware).
	NumVars = core.NumVars
	// NumCharacteristics is the number of Table 1 software characteristics.
	NumCharacteristics = profile.NumCharacteristics
	// NumHWParams is the number of Table 2 hardware parameters.
	NumHWParams = hwspace.NumParams
	// DefaultShardLen is the default profiling shard length in instructions.
	DefaultShardLen = core.DefaultShardLen
)

// Degradation-ladder rungs.
const (
	RungNone     = core.RungNone
	RungGenetic  = core.RungGenetic
	RungStepwise = core.RungStepwise
)

// Sentinel errors callers branch on with errors.Is.
var (
	// ErrNotTrained is returned by predictions before any model is served.
	ErrNotTrained = core.ErrNotTrained
	// ErrNoSamples is returned by Train with an empty profile store.
	ErrNoSamples = core.ErrNoSamples
	// Persistence failure modes of LoadSnapshot.
	ErrModelCorrupt    = core.ErrModelCorrupt
	ErrModelVersion    = core.ErrModelVersion
	ErrModelIncomplete = core.ErrModelIncomplete
	ErrModelChecksum   = core.ErrModelChecksum
	ErrModelFamily     = core.ErrModelFamily
	ErrModelNotRegular = core.ErrModelNotRegular
	ErrModelTooLarge   = core.ErrModelTooLarge
	// ErrAllFamiliesFailed is returned by a selection round in which no
	// registered family produced a model.
	ErrAllFamiliesFailed = core.ErrAllFamiliesFailed
)

// Option configures a Trainer at construction; see New.
type Option func(*Trainer)

// New builds a trainer over an initial (possibly empty) profile store with
// the paper's defaults, then applies options. It replaces direct mutation of
// the trainer's configuration fields.
func New(samples []Sample, opts ...Option) *Trainer {
	t := core.NewTrainer(samples)
	for _, o := range opts {
		o(t)
	}
	return t
}

// WithSeed determinizes both the genetic search and the per-application
// train/validation splits.
func WithSeed(seed uint64) Option {
	return func(t *Trainer) {
		t.Search.Seed = seed
		t.Fitness.Seed = seed
	}
}

// WithGenerations bounds the genetic search length.
func WithGenerations(n int) Option {
	return func(t *Trainer) { t.Search.Generations = n }
}

// WithPopulation sets the genetic population size.
func WithPopulation(n int) Option {
	return func(t *Trainer) { t.Search.PopulationSize = n }
}

// WithSearch replaces the whole genetic search configuration for callers
// that need more than the common knobs above.
func WithSearch(p SearchParams) Option {
	return func(t *Trainer) { t.Search = p }
}

// WithShardLen records the profiling shard length in published snapshots so
// a loaded model profiles new shards consistently.
func WithShardLen(n int) Option {
	return func(t *Trainer) { t.ShardLen = n }
}

// WithFamilies registers an explicit set of model families: every training
// run becomes a selection round that fits each family against the same
// captured evaluator state, scores all of them on the shared validation
// rows, and publishes the winner (TrainReport.Family / Snapshot.Family say
// which; TrainReport.FamilyScores has the full scoreboard). An empty set
// selects the reference spline family alone, the paper's genetic spline
// search.
func WithFamilies(fams ...ModelFamily) Option {
	return func(t *Trainer) { t.Families = fams }
}

// WithFamilySelection registers all built-in families (spline, residual,
// dal); shorthand for WithFamilies(DefaultFamilies()...).
func WithFamilySelection() Option {
	return func(t *Trainer) { t.Families = core.DefaultFamilies() }
}

// DefaultFamilies returns the built-in model families: the reference
// genetic spline search, the analytical-prior residual learner, and the
// divide-and-learn clustered splines.
func DefaultFamilies() []ModelFamily { return core.DefaultFamilies() }

// FamilyByName resolves a built-in family from its stable name ("spline",
// "residual", "dal"); nil for unknown names.
func FamilyByName(name string) ModelFamily { return core.FamilyByName(name) }

// LoadSnapshot reads a model snapshot persisted by Snapshot.Save, verifying
// version, structure, shape, and checksum; failure modes are the typed
// ErrModel* errors. Hand the result to Trainer.Adopt to serve it.
func LoadSnapshot(path string) (*Snapshot, error) { return core.LoadSnapshot(path) }

// Baseline returns the mid-range reference microarchitecture.
func Baseline() Config { return hwspace.Baseline() }

// ConfigFromIndices expands Table 2 level indices into a full configuration.
// It panics on out-of-range indices; use ConfigFromArch (wire.go) for the
// error-returning variant that validates external input.
func ConfigFromIndices(ix Indices) Config { return hwspace.FromIndices(ix) }

// RandomConfig draws one configuration uniformly at random from the Table 2
// space, deterministically in seed.
func RandomConfig(seed uint64) Config {
	return hwspace.FromIndices(hwspace.Sample(rng.New(seed)))
}

// NewLifecycle attaches a continuous-learning control loop to a trainer:
// every Sample handed to Submit is folded into bounded stores and scored for
// drift, and confirmed drift drives a shadow retrain with canary-gated
// promotion (or rollback) of the trainer's served snapshot. Zero fields of
// cfg take the loop's documented defaults. Close the loop before discarding
// it.
func NewLifecycle(t *Trainer, cfg LifecycleConfig) *Lifecycle {
	return lifecycle.NewController(t, cfg)
}
