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
	"hsmodel/internal/rng"
)

// selectionRound records one run of the model-family selection harness:
// every registered family fitted against the same captured evaluator state
// and scored on the same per-application validation rows, with the winner
// published.
type selectionRound struct {
	// Winner is the name of the selected family; empty when the round failed.
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
	// participated — partial when the round failed or was cancelled —
	// preserved so the next Train can warm-start.
	Population []genetic.Individual
}

// ErrAllFamiliesFailed is returned by a selection round in which no
// registered family produced a model, joined with every family's error.
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
	for _, f := range DefaultFamilies() {
		if f.Name() == name {
			return f
		}
	}
	return nil
}

// runSelection fits every family against one FitInput — the spline family
// alone when fams is empty — scores the fitted models on the shared
// validation rows, and picks the minimum. Exact score ties (bit-equal
// float64s) are broken by a seeded draw over the tied names in sorted order,
// so selection is deterministic in (families, FitInput). The result is never
// nil: a failed or cancelled round still carries the per-family errors and
// the spline family's partial population.
func runSelection(ctx context.Context, fams []family.Family, in family.FitInput) (*selectionRound, error) {
	if len(fams) == 0 {
		fams = []family.Family{spline.New()}
	}
	sel := &selectionRound{
		Scores: make(map[string]float64, len(fams)),
		Errors: make(map[string]error),
	}
	type candidate struct {
		name  string
		model family.Model
		score float64
	}
	var cands []candidate
	var errs []error
	// Every family predicts the same validation rows, in family.ValOrder, as
	// one batch.
	order := family.ValOrder(in.ValRows, in.Dataset.NumRows())
	rows := make([][]float64, len(order))
	for k, r := range order {
		rows[k] = in.Dataset.X.Row(r)
	}
	pred := make([]float64, len(order))
	for _, f := range fams {
		if err := ctx.Err(); err != nil {
			return sel, cancelled(err)
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
				return sel, cancelled(ferr)
			}
			sel.Errors[f.Name()] = ferr
			errs = append(errs, ferr)
			continue
		}
		out.Model.PredictBatch(rows, pred)
		score := family.ValScore(pred, in.Dataset.Y, in.ValRows)
		sel.Scores[f.Name()] = score
		cands = append(cands, candidate{name: f.Name(), model: out.Model, score: score})
	}
	if len(cands) == 0 {
		return sel, fmt.Errorf("%w: %w", ErrAllFamiliesFailed, errors.Join(errs...))
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

// cancelled wraps the cause of a cancelled round so it always matches
// genetic.ErrCancelled, as a cancelled search does.
func cancelled(cause error) error {
	if errors.Is(cause, genetic.ErrCancelled) {
		return fmt.Errorf("core: family selection cancelled: %w", cause)
	}
	return fmt.Errorf("core: family selection cancelled: %w: %w", genetic.ErrCancelled, cause)
}
