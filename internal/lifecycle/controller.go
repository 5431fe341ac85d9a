// Package lifecycle keeps a served model healthy under live drift: the
// continuous-learning control loop the paper sketches in Section 3.3
// ("re-specify the model when incoming profiles disagree with it") made
// operational. A Controller watches the sample stream, detects drift in
// prediction-vs-observed error, gathers fresh profiles into bounded stores,
// retrains a candidate in a shadow trainer on a background goroutine, scores
// it against a canary set, and promotes it with an atomic snapshot swap only
// if it beats the incumbent — otherwise it rolls back (the served pointer
// never moves) and backs off under an exponential, jittered cooldown.
//
// State machine:
//
//	Stable → DriftSuspected → Gathering → Retraining → Canary
//	                                                     ├─ Promote  → Stable
//	                                                     └─ Rollback → Cooldown → Stable
//
// Every decision is deterministic given Config.Seed and the submission
// order: cooldowns are counted in submissions (not wall clock), jitter and
// reservoir eviction come from seeded generators, and the canary/holdout
// split is a seeded shuffle. The only nondeterminism is how background
// retraining interleaves with new submissions, which tests resolve by
// polling Status between submissions.
package lifecycle

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/rng"
)

// State is a node of the controller's state machine.
type State int

const (
	// StateStable: the served model tracks observations; the detector watches.
	StateStable State = iota
	// StateDriftSuspected: the detector tripped; waiting for confirmation so
	// a single bad burst does not start an episode.
	StateDriftSuspected
	// StateGathering: drift confirmed; accumulating fresh post-drift profiles
	// until enough arrive to retrain (the paper's 10–20 new points).
	StateGathering
	// StateRetraining: a shadow trainer is fitting a candidate on a
	// background goroutine, then scoring it against the held-out reservoir
	// split and the recent query stream; serving continues on the incumbent
	// snapshot. Scoring and the promote-or-cooldown decision take one hold
	// of the controller's lock, so the next state is Stable or Cooldown.
	StateRetraining
	// StateCooldown: a rollback or ladder failure occurred; retraining is
	// suppressed for an exponentially growing, jittered number of
	// submissions.
	StateCooldown
)

func (s State) String() string {
	switch s {
	case StateStable:
		return "stable"
	case StateDriftSuspected:
		return "drift-suspected"
	case StateGathering:
		return "gathering"
	case StateRetraining:
		return "retraining"
	case StateCooldown:
		return "cooldown"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// The control loop's fixed settings.
const (
	// confirmObservations is how many consecutive tripped observations turn
	// suspicion into a confirmed episode.
	confirmObservations = 3
	// holdoutFrac is the fraction of the reservoir held out of training and
	// reserved for canary scoring.
	holdoutFrac = 0.25
	// canarySamples is how many of the most recent submissions join the
	// canary set as the live-stream proxy.
	canarySamples = 8
	// retrainTimeout bounds one shadow training episode.
	retrainTimeout = 2 * time.Minute
	// cooldownMax caps the exponential cooldown, in submissions, before
	// jitter.
	cooldownMax = 4096
)

// Config tunes the control loop. The zero value of every field is replaced
// by a sensible default, so Config{} is a working configuration.
type Config struct {
	// Drift configures the streaming drift detector.
	Drift DriftConfig
	// MinProfiles is how many fresh post-drift samples must gather before a
	// retrain triggers (default core.MinUpdateProfiles, the paper's
	// update-protocol floor).
	MinProfiles int
	// MinTrainRows is the minimum total training-set size for a retrain
	// (default 30): a candidate fit on fewer rows than the model has basis
	// columns would be noise.
	MinTrainRows int
	// ReservoirCap bounds the uniform long-term sample store (default 2048).
	ReservoirCap int
	// RingCap bounds the recent-sample ring (default 256).
	RingCap int
	// CanaryTolerance is the relative slack the candidate gets: it is
	// promoted when candidateErr <= incumbentErr * (1 + CanaryTolerance)
	// (default 0.05). Negative tolerance demands strict improvement.
	CanaryTolerance float64
	// CooldownBase is the first cooldown length in submissions (default 64);
	// consecutive rollbacks double it up to cooldownMax, plus deterministic
	// jitter of up to a quarter of the cooldown.
	CooldownBase int
	// Seed determinizes the reservoir, the holdout split, and the cooldown
	// jitter.
	Seed uint64
	// OnTransition, when non-nil, observes state changes. It is called with
	// the controller's lock held and must not call back into the Controller.
	OnTransition func(from, to State, reason string)
}

func (c Config) withDefaults() Config {
	c.Drift = c.Drift.withDefaults()
	if c.MinProfiles <= 0 {
		c.MinProfiles = core.MinUpdateProfiles
	}
	if c.MinTrainRows <= 0 {
		c.MinTrainRows = 30
	}
	if c.ReservoirCap <= 0 {
		c.ReservoirCap = 2048
	}
	if c.RingCap <= 0 {
		c.RingCap = 256
	}
	if c.CanaryTolerance == 0 {
		c.CanaryTolerance = 0.05
	}
	if c.CooldownBase <= 0 {
		c.CooldownBase = 64
	}
	return c
}

// Status is a point-in-time view of the control loop, served by
// GET /v2/models/{id}/lifecycle and mirrored into /metrics.
type Status struct {
	State             string  `json:"state"`
	Submissions       uint64  `json:"submissions"`
	DriftScore        float64 `json:"drift_score"`
	ErrEWMA           float64 `json:"err_ewma"`
	ReservoirLen      int     `json:"reservoir_len"`
	ReservoirCap      int     `json:"reservoir_cap"`
	RingLen           int     `json:"ring_len"`
	RingCap           int     `json:"ring_cap"`
	FreshSamples      int     `json:"fresh_samples"`
	Retrains          uint64  `json:"retrains"`
	Promotions        uint64  `json:"promotions"`
	Rollbacks         uint64  `json:"rollbacks"`
	LadderFailures    uint64  `json:"ladder_failures"`
	CanaryErr         float64 `json:"canary_err"`
	IncumbentErr      float64 `json:"incumbent_err"`
	CooldownRemaining uint64  `json:"cooldown_remaining"`
	LastRung          string  `json:"last_rung"`
	LastOutcome       string  `json:"last_outcome"`
}

// Controller runs the continuous-learning loop around a live core.Trainer.
// Submit is the single entry point for observed samples; everything else is
// read-only inspection. The live trainer's served Snapshot is only ever
// replaced by a promotion — a failed or rolled-back episode leaves the
// pointer untouched, so concurrent predictions never observe a regressed
// model.
type Controller struct {
	cfg  Config
	live *core.Trainer

	mu        sync.Mutex
	state     State
	detector  *Detector
	reservoir *Reservoir
	ring      *Ring
	jitter    *rng.Source

	submissions   uint64
	fresh         int // post-confirmation samples gathered this episode
	confirm       int // consecutive tripped observations while suspected
	episodes      uint64
	cooldownUntil uint64
	rollbackRun   int // consecutive rollbacks, for exponential backoff

	retrains       uint64
	promotions     uint64
	rollbacks      uint64
	ladderFailures uint64
	canaryErr      float64
	incumbentErr   float64
	lastRung       core.Rung
	lastOutcome    string

	closed    bool
	ctx       context.Context
	cancel    context.CancelFunc
	retrainWG sync.WaitGroup
}

// NewController wires a control loop around the live trainer. The trainer's
// configuration fields (Search, SearchTimeout, Fitness, Stabilize,
// LogResponse, ShardLen, Families) are mirrored into each shadow trainer,
// so they must be set before the first episode and not mutated afterwards —
// the same contract core.Trainer itself imposes.
func NewController(live *core.Trainer, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	src := rng.New(cfg.Seed)
	return &Controller{
		cfg:       cfg,
		live:      live,
		state:     StateStable,
		detector:  NewDetector(cfg.Drift),
		reservoir: NewReservoir(cfg.ReservoirCap, src.Fork(1).Uint64()),
		ring:      NewRing(cfg.RingCap),
		jitter:    src.Fork(2),
		ctx:       ctx,
		cancel:    cancel,
	}
}

// Submit feeds observed samples through the control loop, in order: the
// incumbent model predicts each one, the error drives the drift detector,
// the sample lands in both bounded stores, and the state machine advances.
// One PredictBatch scores the whole call against one publication (a
// promotion takes c.mu too); an unlabelled sample (CPI <= 0) is stored, not
// scored. Submit never blocks on training — episodes run on a background
// goroutine — and is safe for concurrent use. After Close it is a no-op.
func (c *Controller) Submit(samples ...core.Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	pred, _, err := c.live.Snapshot().PredictSamples(samples)
	scored := err == nil

	for i, s := range samples {
		c.submissions++
		tripped := c.detector.Tripped()
		if scored && s.CPI > 0 {
			tripped = c.detector.Observe((pred[i] - s.CPI) / s.CPI)
		}

		c.reservoir.Add(s)
		c.ring.Add(s)

		switch c.state {
		case StateStable:
			if tripped {
				c.confirm = 0
				c.transition(StateDriftSuspected, "drift detector tripped")
			}
		case StateDriftSuspected:
			if !tripped {
				c.transition(StateStable, "drift subsided before confirmation")
				break
			}
			c.confirm++
			if c.confirm >= confirmObservations {
				c.fresh = 0
				c.transition(StateGathering, "drift confirmed")
			}
		case StateGathering:
			c.fresh++
			if c.fresh >= c.cfg.MinProfiles {
				// startEpisode checks the real (deduplicated, canary-excluded)
				// training-set size; if it is still too thin we stay gathering
				// and try again next submission.
				c.startEpisode()
			}
		case StateRetraining:
			// The episode goroutine owns the next transition; samples keep
			// landing in the stores meanwhile.
		case StateCooldown:
			if c.submissions >= c.cooldownUntil {
				c.detector.Reset()
				c.transition(StateStable, "cooldown elapsed")
			}
		}
	}
}

// startEpisode splits the stores into training and canary sets and launches
// the shadow retrain. Called with c.mu held.
func (c *Controller) startEpisode() {
	res := c.reservoir.Samples()
	recent := c.ring.Samples()

	// Seeded holdout split over the reservoir: these rows never reach the
	// shadow trainer, so the canary score is an honest out-of-sample check.
	split := c.jitter.Fork(3 + c.episodes)
	perm := split.Perm(len(res))
	nHold := int(float64(len(res)) * holdoutFrac)
	if nHold < 1 && len(res) > 3 {
		nHold = 1
	}
	excluded := make(map[core.Sample]bool, nHold+canarySamples)
	canary := make([]core.Sample, 0, nHold+canarySamples)
	for _, i := range perm[:nHold] {
		if !excluded[res[i]] {
			excluded[res[i]] = true
			canary = append(canary, res[i])
		}
	}
	// The live-stream proxy: the most recent submissions join the canary set
	// and are likewise excluded from training.
	streamFrom := len(recent) - canarySamples
	if streamFrom < 0 {
		streamFrom = 0
	}
	for _, s := range recent[streamFrom:] {
		if !excluded[s] {
			excluded[s] = true
			canary = append(canary, s)
		}
	}

	train := make([]core.Sample, 0, len(res)+len(recent))
	seen := make(map[core.Sample]bool, len(res)+len(recent))
	for _, s := range res {
		if !excluded[s] && !seen[s] {
			seen[s] = true
			train = append(train, s)
		}
	}
	for _, s := range recent {
		if !excluded[s] && !seen[s] {
			seen[s] = true
			train = append(train, s)
		}
	}
	if len(train) < c.cfg.MinTrainRows || len(canary) == 0 {
		// Not enough distinct rows survived the split; keep gathering.
		return
	}

	c.retrains++
	c.episodes++
	c.transition(StateRetraining, fmt.Sprintf("retrain #%d: %d train rows, %d canary rows", c.retrains, len(train), len(canary)))
	c.retrainWG.Add(1)
	go c.runEpisode(train, canary)
}

// runEpisode trains a candidate in a shadow trainer and decides promotion.
// Runs on its own goroutine; serving never blocks behind it.
func (c *Controller) runEpisode(train, canary []core.Sample) {
	defer c.retrainWG.Done()
	ctx, cancel := context.WithTimeout(c.ctx, retrainTimeout)
	defer cancel()

	shadow := core.NewTrainer(train)
	shadow.Search = c.live.Search
	shadow.SearchTimeout = c.live.SearchTimeout
	shadow.Fitness = c.live.Fitness
	shadow.Stabilize = c.live.Stabilize
	shadow.LogResponse = c.live.LogResponse
	shadow.ShardLen = c.live.ShardLen
	shadow.Families = c.live.Families

	err := shadow.Train(ctx)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastRung = shadow.Report().Rung
	if err != nil {
		// Both rungs failed: a fresh shadow has no model to fall back to, so
		// there is no candidate at all.
		c.ladderFailures++
		c.lastOutcome = "ladder-failed"
		c.beginCooldown("retrain ladder failed")
		return
	}
	candidate := shadow.Snapshot()
	candM, candErr := candidate.EvaluateOn(canary)
	incumbent := c.live.Snapshot()
	var incumbentAPE float64
	haveIncumbent := false
	if incumbent.Trained() {
		if m, err := incumbent.EvaluateOn(canary); err == nil {
			incumbentAPE = m.MedAPE
			haveIncumbent = true
		}
	}
	c.canaryErr = candM.MedAPE
	c.incumbentErr = incumbentAPE

	switch {
	case candErr != nil:
		c.ladderFailures++
		c.lastOutcome = "ladder-failed"
		c.beginCooldown("candidate unevaluable on canary set")
	case !haveIncumbent,
		candM.MedAPE <= incumbentAPE*(1+c.cfg.CanaryTolerance):
		c.promote(candidate, train)
	default:
		c.rollbacks++
		c.lastOutcome = "rolled-back"
		c.beginCooldown(fmt.Sprintf("canary regressed: candidate %.1f%% vs incumbent %.1f%%",
			100*candM.MedAPE, 100*incumbentAPE))
	}
}

// promote swaps the candidate in atomically and aligns the live trainer's
// sample store with the bounded training set, so a later manual retrain fits
// the same regime the promoted model was built on. Called with c.mu held.
func (c *Controller) promote(candidate *core.Snapshot, train []core.Sample) {
	c.live.SetSamples(train)
	c.live.Adopt(candidate)
	c.promotions++
	c.rollbackRun = 0
	c.lastOutcome = "promoted"
	c.detector.Reset()
	c.transition(StateStable, fmt.Sprintf("promoted candidate (canary %.1f%% vs incumbent %.1f%%)",
		100*c.canaryErr, 100*c.incumbentErr))
}

// beginCooldown enters Cooldown with exponential backoff and deterministic
// jitter, counted in submissions so replays are exact. Called with c.mu held.
func (c *Controller) beginCooldown(reason string) {
	c.rollbackRun++
	cool := c.cfg.CooldownBase
	for i := 1; i < c.rollbackRun && cool < cooldownMax; i++ {
		cool *= 2
	}
	if cool > cooldownMax {
		cool = cooldownMax
	}
	cool += c.jitter.Intn(cool/4 + 1)
	c.cooldownUntil = c.submissions + uint64(cool)
	c.transition(StateCooldown, fmt.Sprintf("%s; cooling down for %d submissions", reason, cool))
}

// transition moves the state machine and notifies the hook. Called with
// c.mu held.
func (c *Controller) transition(to State, reason string) {
	from := c.state
	if from == to {
		return
	}
	c.state = to
	if c.cfg.OnTransition != nil {
		c.cfg.OnTransition(from, to, reason)
	}
}

// State returns the current state-machine node.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Status returns a consistent point-in-time view of the loop.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	var cooldown uint64
	if c.state == StateCooldown && c.cooldownUntil > c.submissions {
		cooldown = c.cooldownUntil - c.submissions
	}
	return Status{
		State:             c.state.String(),
		Submissions:       c.submissions,
		DriftScore:        c.detector.Score(),
		ErrEWMA:           c.detector.EWMA(),
		ReservoirLen:      c.reservoir.Len(),
		ReservoirCap:      c.reservoir.Cap(),
		RingLen:           c.ring.Len(),
		RingCap:           c.ring.Cap(),
		FreshSamples:      c.fresh,
		Retrains:          c.retrains,
		Promotions:        c.promotions,
		Rollbacks:         c.rollbacks,
		LadderFailures:    c.ladderFailures,
		CanaryErr:         c.canaryErr,
		IncumbentErr:      c.incumbentErr,
		CooldownRemaining: cooldown,
		LastRung:          c.lastRung.String(),
		LastOutcome:       c.lastOutcome,
	}
}

// Close stops the loop: further Submits are no-ops, any in-flight episode is
// cancelled, and Close blocks until its goroutine has exited. Idempotent.
func (c *Controller) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	c.retrainWG.Wait()
	return nil
}
