package core

import (
	"context"
	"fmt"
	"time"

	"hsmodel/internal/family/spline"
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
	// RungStepwise: genetic search failed or timed out; the cheaper forward
	// stepwise search produced the model.
	RungStepwise
	// RungLastGood: both searches failed; the trainer serves the last-good
	// model (reloaded from disk, or the previous in-memory fit).
	RungLastGood
)

func (r Rung) String() string {
	switch r {
	case RungGenetic:
		return "genetic"
	case RungStepwise:
		return "stepwise"
	case RungLastGood:
		return "last-good"
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
	case "last-good":
		return RungLastGood
	default:
		return RungNone
	}
}

// Resilience configures the degradation ladder of TrainResilient.
type Resilience struct {
	// SearchTimeout bounds the selection round of the genetic rung; 0 means
	// no deadline beyond the caller's context.
	SearchTimeout time.Duration
	// StepwiseBudget caps fitness evaluations in the stepwise rung
	// (default 200, roughly the cost of a few genetic generations).
	StepwiseBudget int
	// LastGoodPath, when non-empty, names a model file written by Save to
	// reload if both searches fail.
	LastGoodPath string
}

func (r Resilience) withDefaults() Resilience {
	if r.StepwiseBudget <= 0 {
		r.StepwiseBudget = 200
	}
	return r
}

// TrainReport records which rung of the ladder produced the served model and
// what failed on the way down. Errors for rungs that were never needed are
// nil.
type TrainReport struct {
	Rung        Rung
	GeneticErr  error // why the genetic rung failed (or nil)
	StepwiseErr error // why the stepwise rung failed or was skipped (or nil)
	LoadErr     error // why reloading LastGoodPath failed (or nil)
	// SampleVersion and SampleRows identify the sample-store state the
	// episode's searches fit against: every rung of one episode trains on the
	// same captured version, so samples added mid-episode are all-or-nothing
	// (compare SampleVersion against Trainer.StoreVersion to detect drift
	// between the served model and the current store). Zero when no rung ran
	// a search (for example an empty store).
	SampleVersion uint64
	SampleRows    int
	// Family names the model family the episode published ("spline" on the
	// stepwise rung). FamilyScores carries the per-family scores of the
	// genetic rung's selection round when it published, and FamilyErrors the
	// families whose Fit failed in that round (skipped, never fatal to the
	// episode while at least one family fits).
	Family       string
	FamilyScores map[string]float64
	FamilyErrors map[string]error
	// GramFits and QRFallbacks count how this episode's candidate fits were
	// served (every rung shares the episode's one evaluator): the O(p³)
	// Gram/Cholesky fast path versus the pivoted-QR fallback (ill-conditioned
	// or rank-deficient sub-Gram systems). A high fallback rate is a signal the
	// profile store has collinear or degenerate columns.
	GramFits    uint64
	QRFallbacks uint64
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
	if t.LoadErr != nil {
		s += fmt.Sprintf(" (last-good load: %v)", t.LoadErr)
	}
	if t.GramFits+t.QRFallbacks > 0 {
		s += fmt.Sprintf(" (fits: %d gram, %d qr-fallback)", t.GramFits, t.QRFallbacks)
	}
	return s
}

// TrainResilient trains through a degradation ladder instead of failing:
//
//  1. A selection round over the trainer's families — the full genetic
//     spline search by default (optionally deadline-bounded by
//     SearchTimeout).
//  2. On failure, forward stepwise search under StepwiseBudget — unless the
//     caller's context is already dead, in which case no further compute is
//     spent.
//  3. On failure again, the last-good model: reloaded from LastGoodPath if
//     set and readable, else the previously published snapshot (a failed
//     training run never replaces the snapshot).
//
// The report says which rung the served model came from; the error is
// non-nil only when every rung failed and the trainer has no model at all.
// This is the always-available behavior the paper's update protocol assumes:
// the model keeps answering while it is re-specified, even when
// re-specification goes wrong — concurrent PredictShard calls read whichever
// snapshot is current throughout the ladder.
//
// The whole episode is atomic with respect to other training runs (it holds
// the training mutex across every rung) and fits against one captured
// sample-store version: samples that arrive mid-episode influence neither
// the genetic nor the stepwise rung, and take effect at the next run. The
// report's SampleVersion/SampleRows record the capture.
func (m *Trainer) TrainResilient(ctx context.Context, r Resilience) (rep TrainReport, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r = r.withDefaults()

	m.trainMu.Lock()
	defer m.trainMu.Unlock()

	cap, capErr := m.captureEvaluator()
	defer func() {
		s := m.recordFitStats(cap)
		rep.GramFits, rep.QRFallbacks = s.GramFits, s.QRFallbacks
	}()
	if capErr != nil {
		// No evaluator means no search can run at any rung; degrade straight
		// to the last-good fallbacks below.
		rep.GeneticErr = capErr
		rep.StepwiseErr = fmt.Errorf("core: stepwise rung skipped: %w", capErr)
	} else {
		rep.SampleVersion, rep.SampleRows = cap.version, cap.rows
		gctx := ctx
		if r.SearchTimeout > 0 {
			var cancel context.CancelFunc
			gctx, cancel = context.WithTimeout(ctx, r.SearchTimeout)
			defer cancel()
		}
		trainErr := m.train(gctx, nil, cap)
		// train records its round, failed or not.
		sel := m.Selection()
		if len(sel.Errors) > 0 {
			rep.FamilyErrors = sel.Errors
		}
		if trainErr == nil {
			rep.Rung = RungGenetic
			rep.Family = sel.Winner
			rep.FamilyScores = sel.Scores
			return rep, nil
		}
		rep.GeneticErr = trainErr

		if err := ctx.Err(); err != nil {
			rep.StepwiseErr = fmt.Errorf("core: stepwise rung skipped: %w", err)
		} else if err := m.trainStepwise(ctx, r.StepwiseBudget, cap); err == nil {
			// The stepwise floor is always the reference spline family.
			rep.Rung = RungStepwise
			rep.Family = m.Snapshot().Family()
			return rep, nil
		} else {
			rep.StepwiseErr = err
		}
	}

	if r.LastGoodPath != "" {
		if loaded, err := LoadSnapshot(r.LastGoodPath); err == nil {
			m.publish(loaded)
			rep.Rung = RungLastGood
			rep.Family = loaded.Family()
			return rep, nil
		} else {
			rep.LoadErr = err
		}
	}
	if m.Trained() {
		rep.Rung = RungLastGood
		return rep, nil
	}
	rep.Rung = RungNone
	return rep, fmt.Errorf("core: all rungs failed: genetic: %w; stepwise: %w",
		rep.GeneticErr, rep.StepwiseErr)
}

// trainStepwise is the stepwise rung: spline.FitStepwise over the episode's
// captured evaluator, wrapped as the top rung wraps it, so the rung fits
// exactly the rows the genetic rung saw, never a store that moved
// mid-episode. Callers must hold trainMu (and must NOT hold mu), so sample
// mutation and predictions proceed during the search.
func (m *Trainer) trainStepwise(ctx context.Context, budget int, cap capturedEval) error {
	model, res, err := spline.FitStepwise(ctx, m.fitInput(nil, cap.ev), budget)
	if err != nil {
		return fmt.Errorf("core: stepwise rung: %w", err)
	}
	m.mu.Lock()
	m.population = res.Population
	m.mu.Unlock()
	m.publish(newSnapshot(spline.FamilyName, spline.Wrap(model), nil, m.ShardLen, RungStepwise, cap.rows))
	return nil
}
