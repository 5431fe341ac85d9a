package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"hsmodel/internal/family"
	"hsmodel/internal/family/dal"
	"hsmodel/internal/family/residual"
	"hsmodel/internal/family/spline"
	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
	"hsmodel/internal/stats"
)

// SelectionResult records one run of the model-family selection harness:
// every registered family fitted against the same captured evaluator state
// and scored on the same per-application validation rows, with the winner
// published.
type SelectionResult struct {
	// Winner is the name of the selected family.
	Winner string
	// Model is the winner's fitted model.
	Model family.Model
	// Scores maps every successfully fitted family to its selection score:
	// the mean over applications of the median absolute percentage error on
	// that application's validation rows (the trainer's CV metric, without
	// the term penalty so structurally different families compare fairly).
	Scores map[string]float64
	// Errors maps each family whose Fit failed to its error. A failing
	// family is skipped, never aborts the round; the round errors only when
	// every family fails or the context is cancelled.
	Errors map[string]error
	// Population is the spline family's final search population when it
	// participated, preserved so the next Update can warm-start.
	Population []genetic.Individual
}

// ErrAllFamiliesFailed is returned by a selection round in which no
// registered family produced a model.
var ErrAllFamiliesFailed = errors.New("core: family selection: every family failed")

// DefaultFamilies returns the three built-in model families: the reference
// genetic spline search, the analytical-prior residual learner, and the
// divide-and-learn clustered splines.
func DefaultFamilies() []family.Family {
	return []family.Family{spline.New(), residual.New(), dal.New()}
}

// FamilyByName resolves a built-in family from its stable name; used when
// loading persisted snapshots. Returns nil for unknown names.
func FamilyByName(name string) family.Family {
	switch name {
	case spline.FamilyName:
		return spline.New()
	case residual.FamilyName:
		return residual.New()
	case dal.FamilyName:
		return dal.New()
	}
	return nil
}

// SelectFamily runs the selection harness standalone over an arbitrary
// dataset (any raw-variable arity — the 26-var integrated space or a domain
// space like spmv's 10 vars): it builds the trainer's weighted
// per-application splits from fc, fits every family against them, and scores
// each on the held-out rows. This is the entry the families-smoke CI check
// drives; the Trainer uses the same internal round for its own training runs.
func SelectFamily(ctx context.Context, ds *regress.Dataset, fc FitnessConfig, stabilize, logResponse bool, search genetic.Params, fams []family.Family) (*SelectionResult, error) {
	if len(fams) == 0 {
		return nil, errors.New("core: family selection: no families registered")
	}
	ev, err := newEvaluator(ds, fc, stabilize, logResponse)
	if err != nil {
		return nil, fmt.Errorf("core: featurizing samples: %w", err)
	}
	in := family.FitInput{
		NumVars:     ds.NumVars(),
		Dataset:     ds,
		Featurizer:  ev.fz,
		Evaluator:   ev,
		Search:      search,
		LogResponse: logResponse,
		Stabilize:   stabilize,
		Seed:        fc.Seed,
		Weights:     ev.weights,
		ValRows:     ev.valRows,
	}
	return runSelection(ctx, fams, in)
}

// runSelection fits every family against one FitInput, scores the fitted
// models on the shared validation rows, and picks the minimum. Exact score
// ties (bit-equal float64s) are broken by a seeded draw over the tied names
// in sorted order, so selection is deterministic in (families, FitInput).
func runSelection(ctx context.Context, fams []family.Family, in family.FitInput) (*SelectionResult, error) {
	sel := &SelectionResult{
		Scores: make(map[string]float64, len(fams)),
		Errors: make(map[string]error),
	}
	type candidate struct {
		name  string
		model family.Model
		score float64
	}
	var cands []candidate
	for _, f := range fams {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: family selection cancelled: %w", err)
		}
		out, ferr := f.Fit(ctx, in)
		if f.Name() == spline.FamilyName && out.Population != nil {
			sel.Population = out.Population
		}
		if ferr != nil {
			if ctx.Err() != nil {
				// A cancellation mid-fit aborts the whole round: scoring the
				// remaining families against a half-done episode would
				// publish a winner chosen on an unfair comparison.
				return nil, fmt.Errorf("core: family selection cancelled: %w", ferr)
			}
			sel.Errors[f.Name()] = ferr
			continue
		}
		score := scoreFamilyModel(out.Model, in.Dataset, in.ValRows)
		sel.Scores[f.Name()] = score
		cands = append(cands, candidate{name: f.Name(), model: out.Model, score: score})
	}
	if len(cands) == 0 {
		return sel, ErrAllFamiliesFailed
	}

	best := cands[0]
	for _, c := range cands[1:] {
		if c.score < best.score {
			best = c
		}
	}
	// Seeded tiebreak over bit-identical scores. Candidate order is the
	// registration slice, so tied is deterministic before the sort too.
	bestBits := math.Float64bits(best.score)
	var tied []candidate
	for _, c := range cands {
		if math.Float64bits(c.score) == bestBits {
			tied = append(tied, c)
		}
	}
	if len(tied) > 1 {
		sort.Slice(tied, func(i, j int) bool { return tied[i].name < tied[j].name })
		src := rng.New(in.Seed ^ 0x71eb4ea4)
		best = tied[src.Intn(len(tied))]
	}
	sel.Winner = best.name
	sel.Model = best.model
	return sel, nil
}

// scoreFamilyModel computes a fitted model's selection score: mean per-
// application MedAPE over the validation rows, identical data and metric for
// every family. With no split (empty ValRows) it scores on all rows.
func scoreFamilyModel(m family.Model, ds *regress.Dataset, valRows [][]int) float64 {
	var sum float64
	var n int
	for _, val := range valRows {
		if len(val) == 0 {
			continue
		}
		pred := make([]float64, len(val))
		truth := make([]float64, len(val))
		for k, r := range val {
			pred[k] = m.Predict(ds.X.Row(r))
			truth[k] = ds.Y[r]
		}
		sum += stats.MedianAbsPctError(pred, truth)
		n++
	}
	if n == 0 {
		pred := make([]float64, ds.NumRows())
		for i := range pred {
			pred[i] = m.Predict(ds.X.Row(i))
		}
		return stats.MedianAbsPctError(pred, ds.Y)
	}
	return sum / float64(n)
}
