// Package family defines the ModelFamily plug-in contract the core engine
// fits against. A family is one way of turning the accumulated sparse
// profiles into a predictor over the integrated raw-variable row: the
// reference implementation is the paper's genetically searched spline
// regression (family/spline); family/residual composes an analytical cost
// prior with a learned spline correction on the residual; family/dal
// partitions the sample space into clusters and fits one local spline model
// per cluster.
//
// The package is deliberately independent of internal/core: it speaks only
// the regression vocabulary (regress.Dataset, regress.Featurizer) and the
// search vocabulary (genetic.Evaluator, genetic.Params), so families are
// reusable over any variable space — the 26-variable general models and the
// 10-variable spmv domain models alike. The core trainer builds a FitInput
// from its captured evaluator state, asks every registered family to Fit,
// scores the fitted models on the same weighted splits, and publishes the
// winner; see core.Trainer.Families.
//
// Determinism contract: a family's Fit must be a pure function of FitInput —
// all randomness flows through FitInput.Seed or the seeded Search params,
// never the process-global source — and must honor ctx cancellation in every
// loop that does meaningful work. The repo's hslint analyzers (determinism,
// ctxflow) enforce both for every package under internal/family/... .
package family

import (
	"context"
	"encoding/json"

	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
	"hsmodel/internal/stats"
)

// TermPenalty is the parsimony pressure every family adds to a candidate's
// validation error per fitted coefficient. Smaller models extrapolate to new
// software far better (Section 4.4), so the search is kept from memorizing
// per-application clusters with large specifications.
const TermPenalty = 0.0004

// FailedFit is the score of a candidate that cannot be scored: its fit
// failed (a rank failure, a non-positive response under a log fit) or its
// split left no row to validate on. It sits far above any MedAPE, so a
// search never keeps such a candidate over a scored one.
const FailedFit = 1e6

// ValScore is the per-application fitness of Section 3.3, the one score
// every search in the tree ranks candidates by: the mean over groups of the
// median absolute percentage error of the predictions on the group's
// validation rows. y holds the dataset's responses, valRows lists each
// application's validation rows (FitInput.ValRows), and pred holds one
// prediction per row of ValOrder(valRows, len(y)), in that order. An empty
// group is skipped; no split (empty valRows) scores every row as one group; a
// split whose groups are all empty scores FailedFit. Searches over
// specifications add TermPenalty per fitted coefficient on top; the
// cross-family selection round does not.
func ValScore(pred, y []float64, valRows [][]int) float64 {
	if len(valRows) == 0 {
		valRows = [][]int{ValOrder(nil, len(y))}
	}
	var sum float64
	n, off := 0, 0
	for _, val := range valRows {
		if len(val) == 0 {
			continue
		}
		truth := make([]float64, len(val))
		for k, r := range val {
			truth[k] = y[r]
		}
		sum += stats.MedianAbsPctError(pred[off:off+len(val)], truth)
		off += len(val)
		n++
	}
	if n == 0 {
		return FailedFit
	}
	return sum / float64(n)
}

// ValOrder lists the rows ValScore reads predictions for, in its order: each
// group of valRows in turn, or all n rows of the dataset when there is no
// split. A scorer predicts these rows in one batch and hands the result to
// ValScore.
func ValOrder(valRows [][]int, n int) []int {
	if len(valRows) == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	var order []int
	for _, val := range valRows {
		order = append(order, val...)
	}
	return order
}

// holdOutStride puts every holdOutStride-th row of a HoldOutEvaluator's
// dataset in its validation set.
const holdOutStride = 4

// HoldOutEvaluator is the strided hold-out fitness, blind to application
// groups: candidates are fitted on three rows in four (log response, uniform
// weights) under prep, which the caller learned on every row, and scored by
// ValScore on every fourth row (0, 4, 8, ...) as one group. The rows must
// come in random order for the stride to be an unbiased split.
func HoldOutEvaluator(ds *regress.Dataset, prep *regress.Prep) (genetic.Evaluator, error) {
	var trainRows, valRows []int
	for i := 0; i < ds.NumRows(); i++ {
		if i%holdOutStride == 0 {
			valRows = append(valRows, i)
		} else {
			trainRows = append(trainRows, i)
		}
	}
	fz, err := regress.FeaturizeWith(prep, ds.Subset(trainRows))
	if err != nil {
		return nil, err
	}
	val := ds.Subset(valRows)
	return genetic.EvaluatorFunc(func(spec regress.Spec) float64 {
		m, err := fz.Fit(spec, regress.Options{LogResponse: true})
		if err != nil {
			return FailedFit
		}
		return ValScore(m.PredictAll(val), val.Y, nil)
	}), nil
}

// Model is a fitted model of one family: a self-contained predictor over the
// raw variable row. Implementations are immutable after construction and
// safe for unsynchronized concurrent use — a Model is served lock-free from
// the core Snapshot.
type Model interface {
	// PredictBatch predicts every raw variable row of rows (the row layout
	// the family was fitted on) into out: out[i] answers rows[i], and
	// len(out) must be at least len(rows). It is the model's only predict
	// method; one prediction is a batch of one. Implementations amortize
	// per-call work (scratch buffers, dispatch) across the batch, but a row's
	// answer must not depend on the other rows in its batch: it is
	// Float64bits-identical to the same row answered alone. Implementations
	// allocate nothing in steady state (internal scratch is pooled).
	PredictBatch(rows [][]float64, out []float64)
	// Describe reports human-readable provenance for CLIs and the model route.
	Describe() Description
	// Payload serializes the model for persistence; Family.Load inverts it.
	Payload() (json.RawMessage, error)
}

// Description is the displayable summary of a fitted family model.
type Description struct {
	// Family is the owning family's Name.
	Family string
	// Spec renders the model structure (the spline specification, the prior
	// plus correction spec, or the per-cluster layout).
	Spec string
	// Terms counts fitted coefficients across the whole model.
	Terms int
	// Detail carries family-specific provenance (prior name, cluster count).
	Detail string
}

// FitInput is everything a family needs to fit deterministically. The core
// trainer assembles it from one captured sample-store version, so every
// family in a selection round fits exactly the same rows under exactly the
// same per-application weighted splits.
type FitInput struct {
	// NumVars is the raw variable count (26 for the general integrated
	// space, 10 for the spmv domain space).
	NumVars int
	// Dataset holds all rows; Group labels each row's application.
	Dataset *regress.Dataset
	// Featurizer caches the spline basis columns of Dataset (preprocessing
	// learned from the full data). Families that fit spline regressions
	// share it instead of re-deriving transforms.
	Featurizer *regress.Featurizer
	// Evaluator is the per-application weighted-split fitness the genetic
	// spline search optimizes (already wrapped by any instrumentation seam).
	Evaluator genetic.Evaluator
	// Search configures spec search: seeded, with Initial warm-start specs
	// and the OnGeneration convergence hook already installed by the caller.
	Search genetic.Params
	// LogResponse and Stabilize mirror the trainer's response-transform and
	// variance-stabilization configuration.
	LogResponse bool
	Stabilize   bool
	// Seed determinizes family-internal choices (cluster initialization,
	// internal splits). Derived from the trainer's fitness seed.
	Seed uint64
	// Weights are the split observation weights over Dataset rows: the
	// paper's w on training rows, 0 on validation rows. Nil means no split
	// (fit and score on all rows).
	Weights []float64
	// ValRows lists each application's validation rows (parallel to the
	// sorted distinct Group values, each sorted ascending). Families score
	// internal candidates on these rows so their model selection matches
	// the harness's scoring data.
	ValRows [][]int
}

// FitOutput is a successful (or partially successful) fit.
type FitOutput struct {
	// Model is the fitted predictor; nil when Fit returned an error.
	Model Model
	// Population, when non-nil, is a final search population usable to
	// warm-start the next update (the spline family returns one even when
	// the search itself failed, so partial progress is never discarded).
	Population []genetic.Individual
}

// Family is one pluggable fitting strategy.
type Family interface {
	// Name is the stable identifier used for selection reports, snapshot
	// persistence, and metrics labels.
	Name() string
	// Fit builds a model from in. It must be deterministic in FitInput and
	// honor ctx; on error the returned FitOutput may still carry a partial
	// Population.
	Fit(ctx context.Context, in FitInput) (FitOutput, error)
	// Load inverts Model.Payload for persistence, validating the payload
	// against the expected raw variable count.
	Load(payload json.RawMessage, numVars int) (Model, error)
}
