package core

import (
	"context"
	"fmt"

	"hsmodel/internal/family/spline"
	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
)

// Rung identifies which level of the degradation ladder produced the model
// the Trainer is serving.
type Rung int

const (
	// RungNone: no rung produced a usable model; the trainer is as it was.
	RungNone Rung = iota
	// RungGenetic: the selection round over the trainer's families — the
	// genetic spline search alone by default — succeeded (the healthy path).
	RungGenetic
	// RungStepwise: the selection round failed or timed out; the cheaper
	// forward stepwise search produced the model.
	RungStepwise
)

func (r Rung) String() string {
	switch r {
	case RungGenetic:
		return "genetic"
	case RungStepwise:
		return "stepwise"
	default:
		return "none"
	}
}

// parseRung inverts String; unknown names map to RungNone so saved-model
// metadata from future versions degrades instead of failing the load.
// "family", the selection round's rung name in files written before every
// run became a selection round, is RungGenetic.
func parseRung(s string) Rung {
	switch s {
	case "genetic", "family":
		return RungGenetic
	case "stepwise":
		return RungStepwise
	default:
		return RungNone
	}
}

// stepwiseBudget caps fitness evaluations in the stepwise rung: roughly the
// cost of a few genetic generations.
const stepwiseBudget = 200

// TrainReport is the record of one training run: which rung of the ladder
// produced the served model, what failed on the way down, the selection
// round's scores and generations, and how the run's candidate fits were
// served. Errors for rungs that were never needed are nil.
type TrainReport struct {
	Rung        Rung
	GeneticErr  error // why the genetic rung failed (or nil)
	StepwiseErr error // why the stepwise rung failed or was skipped (or nil)
	// SampleVersion and SampleRows identify the sample-store state the run's
	// searches fit against: both rungs of one run train on the same captured
	// version, so samples added mid-run are all-or-nothing (compare
	// SampleVersion against Trainer.StoreVersion to detect drift between the
	// served model and the current store). Zero when no rung ran a search
	// (for example an empty store).
	SampleVersion uint64
	SampleRows    int
	// Family names the model family the run published ("spline" on the
	// stepwise rung). FamilyScores carries the per-family scores of the
	// genetic rung's selection round when it published, and FamilyErrors the
	// families whose Fit failed in that round (skipped, never fatal to the
	// run while at least one family fits).
	Family       string
	FamilyScores map[string]float64
	FamilyErrors map[string]error
	// History holds the selection round's per-generation search statistics
	// (Figure 5's convergence), partial when the round failed; the stepwise
	// rung adds none.
	History []genetic.GenStats
	// Gram counts how this run's candidate fits were served (both rungs share
	// the run's one evaluator): the O(p³) Gram/Cholesky fast path versus the
	// pivoted-QR fallback (ill-conditioned or rank-deficient sub-Gram
	// systems), and how the cross-product memo behaved. A high fallback rate
	// is a signal the profile store has collinear or degenerate columns. Zero
	// when the run had no Gram layer (an empty or unfeaturizable store).
	Gram regress.GramStats
}

func (t TrainReport) String() string {
	s := "trained via " + t.Rung.String()
	if t.Family != "" {
		s += " (family: " + t.Family + ")"
	}
	if len(t.FamilyErrors) > 0 {
		s += fmt.Sprintf(" (%d family fit(s) failed)", len(t.FamilyErrors))
	}
	if t.GeneticErr != nil {
		s += fmt.Sprintf(" (genetic: %v)", t.GeneticErr)
	}
	if t.StepwiseErr != nil {
		s += fmt.Sprintf(" (stepwise: %v)", t.StepwiseErr)
	}
	if t.Gram.GramFits+t.Gram.QRFallbacks > 0 {
		s += fmt.Sprintf(" (fits: %d gram, %d qr-fallback)", t.Gram.GramFits, t.Gram.QRFallbacks)
	}
	return s
}

// walkLadder runs Train's two rungs on one capture, recording the run in
// rep: the selection round (deadline-bounded by SearchTimeout), then, unless
// it published or the caller's context is dead, the stepwise rung. Callers
// must hold trainMu (and must NOT hold mu).
func (m *Trainer) walkLadder(ctx context.Context, cap capturedEval, rep *TrainReport) error {
	rep.SampleVersion, rep.SampleRows = cap.version, cap.rows
	gctx := ctx
	if m.SearchTimeout > 0 {
		var cancel context.CancelFunc
		gctx, cancel = context.WithTimeout(ctx, m.SearchTimeout)
		defer cancel()
	}
	err := m.train(gctx, cap, rep)
	if err == nil {
		return nil
	}
	rep.GeneticErr = err

	if err := ctx.Err(); err != nil {
		// A dead caller context spends no further compute.
		rep.StepwiseErr = fmt.Errorf("core: stepwise rung skipped: %w", err)
	} else if err := m.trainStepwise(ctx, cap); err != nil {
		rep.StepwiseErr = err
	} else {
		// The stepwise floor is always the reference spline family.
		rep.Rung, rep.Family = RungStepwise, spline.FamilyName
		return nil
	}
	return fmt.Errorf("core: training failed: genetic: %w; stepwise: %w",
		rep.GeneticErr, rep.StepwiseErr)
}

// trainStepwise is the stepwise rung: spline.FitStepwise over the run's
// captured evaluator, wrapped as the top rung wraps it, so the rung fits
// exactly the rows the genetic rung saw, never a store that moved mid-run.
// Callers must hold trainMu (and must NOT hold mu), so sample mutation and
// predictions proceed during the search.
func (m *Trainer) trainStepwise(ctx context.Context, cap capturedEval) error {
	model, res, err := spline.FitStepwise(ctx, m.fitInput(nil, cap.ev), stepwiseBudget)
	if err != nil {
		return fmt.Errorf("core: stepwise rung: %w", err)
	}
	m.mu.Lock()
	m.population = res.Population
	m.mu.Unlock()
	m.publish(newSnapshot(spline.FamilyName, spline.Wrap(model), nil, m.ShardLen, RungStepwise, cap.rows))
	return nil
}
