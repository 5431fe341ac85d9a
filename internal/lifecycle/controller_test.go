package lifecycle

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/faultinject"
	"hsmodel/internal/genetic"
	"hsmodel/internal/trace"
)

// Fixtures are collected once: simulation dominates cost and the profiles
// are deterministic in the seed.
var (
	fixOnce   sync.Once
	fixTrain  []core.Sample
	fixStream []core.Sample
)

func fixtures(t testing.TB) (train, stream []core.Sample) {
	t.Helper()
	fixOnce.Do(func() {
		col := &core.Collector{ShardLen: 20_000, ShardPool: 12}
		apps := []*trace.App{trace.Bzip2(), trace.Hmmer(), trace.Sjeng()}
		fixTrain = col.Collect(apps, 40, 7)
		fixStream = col.Collect(apps, 30, 21)
	})
	return fixTrain, fixStream
}

// newLiveTrainer returns a freshly trained small trainer, the incumbent the
// controller defends. Its clean-stream error is ~5% MedAPE, far under the
// default drift target, so clean traffic never trips the detector.
func newLiveTrainer(t testing.TB) *core.Trainer {
	t.Helper()
	train, _ := fixtures(t)
	tr := core.NewTrainer(append([]core.Sample(nil), train...))
	tr.ShardLen = 20_000
	tr.Search = genetic.Params{PopulationSize: 10, Generations: 2, Seed: 3}
	if err := tr.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tr
}

// episodeConfig is the shared tuning for scripted drift episodes: small
// bounded stores and a short gathering phase so one collected stream drives
// a full episode.
func episodeConfig(seed uint64) Config {
	return Config{
		// Boundary at Target = 0.2: the incumbent's ~5% clean error and a
		// promoted candidate's ~15% sit under it, the ~37% error of a x1.6
		// regime shift sits far over it.
		Drift:        DriftConfig{Target: 0.2},
		MinProfiles:  10,
		MinTrainRows: 24,
		ReservoirCap: 64,
		RingCap:      32,
		Seed:         seed,
	}
}

// drive submits the stream one sample at a time, waiting out any in-flight
// episode between submissions so the interleaving — the one nondeterministic
// ingredient — is pinned and runs replay exactly.
func drive(t testing.TB, c *Controller, stream []core.Sample) {
	t.Helper()
	for _, s := range stream {
		c.Submit(s)
		waitResolved(t, c)
	}
}

func waitResolved(t testing.TB, c *Controller) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := c.State()
		if st != StateRetraining {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("episode stuck in %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shifted returns the stream with every CPI label run through the drift
// schedule, in submission order.
func shifted(stream []core.Sample, sched *faultinject.DriftSchedule) []core.Sample {
	out := append([]core.Sample(nil), stream...)
	for i := range out {
		out[i].CPI, _ = sched.Next(out[i].CPI)
	}
	return out
}

// TestLifecyclePromotionOnDrift drives the healthy path end to end: a step
// regime shift (x1.6 labels, ~37% incumbent error) trips the detector, fresh
// profiles gather, a shadow candidate trains on the shifted regime, wins the
// canary, and is promoted by an atomic snapshot swap.
func TestLifecyclePromotionOnDrift(t *testing.T) {
	tr := newLiveTrainer(t)
	_, stream := fixtures(t)
	before := tr.Snapshot()

	var transitions []string
	cfg := episodeConfig(11)
	cfg.OnTransition = func(from, to State, reason string) {
		transitions = append(transitions, fmt.Sprintf("%v->%v", from, to))
	}
	c := NewController(tr, cfg)
	defer c.Close()

	drifted := shifted(stream, &faultinject.DriftSchedule{
		Segments: []faultinject.DriftSegment{{From: 1, Factor: 1.6}},
	})
	drive(t, c, drifted)

	st := c.Status()
	if st.Promotions != 1 {
		t.Fatalf("promotions = %d (status %+v; transitions %v), want exactly 1", st.Promotions, st, transitions)
	}
	if st.Rollbacks != 0 || st.LadderFailures != 0 {
		t.Errorf("rollbacks=%d ladderFailures=%d on the healthy path, want 0/0", st.Rollbacks, st.LadderFailures)
	}
	if st.State != StateStable.String() {
		t.Errorf("state %q after promotion, want stable", st.State)
	}
	if st.LastOutcome != "promoted" {
		t.Errorf("last outcome %q, want promoted", st.LastOutcome)
	}
	if tr.Snapshot() == before {
		t.Error("promotion did not swap the served snapshot")
	}
	// The promoted model tracks the shifted regime far better than the
	// incumbent's ~37% error.
	m, err := tr.Snapshot().EvaluateOn(drifted[len(drifted)-20:])
	if err != nil {
		t.Fatal(err)
	}
	if m.MedAPE > 0.20 {
		t.Errorf("promoted model MedAPE %.1f%% on shifted regime, want under 20%%", 100*m.MedAPE)
	}
}

// TestLifecycleRollbackOnRegression is the core safety property: a candidate
// trained on a noise-polluted store loses the canary, the served snapshot
// pointer NEVER moves (asserted by a concurrent reader for the whole
// episode), and the controller backs off into cooldown. Run under -race.
func TestLifecycleRollbackOnRegression(t *testing.T) {
	tr := newLiveTrainer(t)
	_, stream := fixtures(t)
	before := tr.Snapshot()

	cfg := episodeConfig(5)
	cfg.CanaryTolerance = 0.05
	c := NewController(tr, cfg)
	defer c.Close()

	// A transient x3 perturbation that ends before the retrain triggers: the
	// gathered store is poisoned with shifted labels, so the candidate fits
	// a biased mixture, while the canary set — clean holdout rows plus the
	// clean recent stream — favors the incumbent. The controller must catch
	// the regression and refuse to promote.
	polluted := shifted(stream, &faultinject.DriftSchedule{
		Segments: []faultinject.DriftSegment{{From: 11, To: 24, Factor: 3}},
	})

	// Concurrent reader: the served snapshot must be pointer-identical to
	// the pre-episode snapshot at every instant — a failed episode is never
	// allowed to publish, even transiently.
	stop := make(chan struct{})
	var swapped atomic.Bool
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if tr.Snapshot() != before {
					swapped.Store(true)
					return
				}
				if _, err := tr.Snapshot().PredictShard(stream[0].X, stream[0].HW); err != nil {
					return
				}
			}
		}
	}()

	for _, s := range polluted {
		c.Submit(s)
		waitResolved(t, c)
		if c.Status().Rollbacks > 0 {
			break
		}
	}
	close(stop)
	rwg.Wait()

	st := c.Status()
	if st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d (status %+v), want exactly 1", st.Rollbacks, st)
	}
	if st.LastOutcome != "rolled-back" {
		t.Errorf("last outcome %q, want rolled-back", st.LastOutcome)
	}
	if st.State != StateCooldown.String() {
		t.Errorf("state %q after rollback, want cooldown", st.State)
	}
	if st.CooldownRemaining == 0 {
		t.Error("cooldown remaining is 0 immediately after rollback")
	}
	if swapped.Load() {
		t.Fatal("served snapshot pointer moved during a rolled-back episode")
	}
	if tr.Snapshot() != before {
		t.Fatal("served snapshot differs after rollback: rollback must never publish")
	}
	if st.CanaryErr <= st.IncumbentErr {
		t.Errorf("rollback recorded canary %.3f <= incumbent %.3f: verdict inconsistent", st.CanaryErr, st.IncumbentErr)
	}
}

// TestLifecycleCooldownSuppressesRetraining: after a rollback, fresh drift
// must not start a new episode until the cooldown has elapsed, and the exit
// back to Stable resets the detector.
func TestLifecycleCooldownSuppressesRetraining(t *testing.T) {
	tr := newLiveTrainer(t)
	_, stream := fixtures(t)

	cfg := episodeConfig(5)
	cfg.CooldownBase = 40
	c := NewController(tr, cfg)
	defer c.Close()

	polluted := shifted(stream, &faultinject.DriftSchedule{
		Segments: []faultinject.DriftSegment{{From: 11, To: 24, Factor: 3}},
	})
	var used int
	for i, s := range polluted {
		c.Submit(s)
		waitResolved(t, c)
		if c.Status().Rollbacks > 0 {
			used = i + 1
			break
		}
	}
	st := c.Status()
	if st.Rollbacks != 1 || st.State != StateCooldown.String() {
		t.Fatalf("setup: expected a rollback into cooldown, got %+v", st)
	}
	retrainsAfterRollback := st.Retrains

	// Keep hammering with polluted samples: inside the cooldown window no
	// new episode may start no matter how bad the stream looks.
	remaining := int(st.CooldownRemaining)
	for i := 0; i < remaining; i++ {
		c.Submit(polluted[(used+i)%len(polluted)])
		if got := c.Status(); got.Retrains != retrainsAfterRollback {
			t.Fatalf("retrain started during cooldown (submission %d of %d)", i+1, remaining)
		}
	}
	// One more submission crosses the boundary back to Stable.
	c.Submit(polluted[used%len(polluted)])
	st = c.Status()
	if st.State != StateStable.String() {
		t.Fatalf("state %q after cooldown elapsed, want stable", st.State)
	}
	if st.DriftScore > 0.5 {
		t.Errorf("drift score %.2f after cooldown exit, want reset toward 0", st.DriftScore)
	}
}

// TestLifecycleStableOnCleanStream: clean traffic (incumbent error ~5%)
// never trips the detector and never starts an episode.
func TestLifecycleStableOnCleanStream(t *testing.T) {
	tr := newLiveTrainer(t)
	_, stream := fixtures(t)
	c := NewController(tr, episodeConfig(13))
	defer c.Close()
	for _, s := range stream {
		c.Submit(s)
	}
	st := c.Status()
	if st.State != StateStable.String() || st.Retrains != 0 {
		t.Fatalf("clean stream left controller at %+v, want stable with 0 retrains", st)
	}
}

// TestLifecycleFlatMemoryAt100k: store occupancy stays exactly at capacity
// through 100k submissions — the bounded-store contract that keeps a
// long-lived server flat.
func TestLifecycleFlatMemoryAt100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-submission soak skipped in -short")
	}
	tr := newLiveTrainer(t)
	_, stream := fixtures(t)
	cfg := episodeConfig(17)
	// A threshold no real stream reaches: this soak exercises the stores,
	// not the episode machinery.
	cfg.Drift = DriftConfig{Threshold: 1e18}
	c := NewController(tr, cfg)
	defer c.Close()

	const n = 100_000
	for i := 0; i < n; i++ {
		c.Submit(stream[i%len(stream)])
		if i == 1000 || i == 50_000 || i == n-1 {
			st := c.Status()
			if st.ReservoirLen > st.ReservoirCap || st.RingLen > st.RingCap {
				t.Fatalf("submission %d: occupancy %d/%d reservoir, %d/%d ring — store grew past its bound",
					i+1, st.ReservoirLen, st.ReservoirCap, st.RingLen, st.RingCap)
			}
		}
	}
	st := c.Status()
	if st.Submissions != n {
		t.Fatalf("submissions %d, want %d", st.Submissions, n)
	}
	if st.ReservoirLen != st.ReservoirCap || st.RingLen != st.RingCap {
		t.Fatalf("final occupancy %d/%d reservoir, %d/%d ring, want both exactly full",
			st.ReservoirLen, st.ReservoirCap, st.RingLen, st.RingCap)
	}
	if st.Retrains != 0 {
		t.Fatalf("soak started %d episodes, want 0", st.Retrains)
	}
}

// TestLifecycleDeterministicReplay runs the same promotion episode twice
// from scratch and requires bit-identical transition sequences and decision
// counters — the "every decision deterministic given a seed" contract. The
// first run must also match the recorded log and final status, so a change
// to a controller or detector constant cannot shift a decision unnoticed.
func TestLifecycleDeterministicReplay(t *testing.T) {
	_, stream := fixtures(t)
	run := func() ([]string, Status) {
		tr := newLiveTrainer(t)
		var transitions []string
		cfg := episodeConfig(11)
		cfg.OnTransition = func(from, to State, reason string) {
			transitions = append(transitions, fmt.Sprintf("%v->%v: %s", from, to, reason))
		}
		c := NewController(tr, cfg)
		defer c.Close()
		drifted := shifted(stream, &faultinject.DriftSchedule{
			Segments: []faultinject.DriftSegment{{From: 1, Factor: 1.6}},
		})
		drive(t, c, drifted)
		return transitions, c.Status()
	}
	t1, s1 := run()
	wantLog := []string{
		"stable->drift-suspected: drift detector tripped",
		"drift-suspected->gathering: drift confirmed",
		"gathering->retraining: retrain #1: 24 train rows, 14 canary rows",
		"retraining->stable: promoted candidate (canary 14.1% vs incumbent 36.1%)",
	}
	wantStatus := Status{
		State: "stable", Submissions: 90, ErrEWMA: 0.18894064008124448,
		ReservoirLen: 64, ReservoirCap: 64, RingLen: 32, RingCap: 32,
		FreshSamples: 25, Retrains: 1, Promotions: 1,
		CanaryErr: 0.1413518985160123, IncumbentErr: 0.36087795373565545,
		LastRung: "stepwise", LastOutcome: "promoted",
	}
	if fmt.Sprint(t1) != fmt.Sprint(wantLog) {
		t.Errorf("transition log:\n%q\nwant\n%q", t1, wantLog)
	}
	if s1 != wantStatus {
		t.Errorf("final status:\n%+v\nwant\n%+v", s1, wantStatus)
	}
	t2, s2 := run()
	if len(t1) != len(t2) {
		t.Fatalf("replay produced %d transitions vs %d:\n%v\nvs\n%v", len(t1), len(t2), t1, t2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Errorf("transition %d differs:\n  %s\nvs\n  %s", i, t1[i], t2[i])
		}
	}
	if s1 != s2 {
		t.Errorf("replay status differs:\n%+v\nvs\n%+v", s1, s2)
	}
}

// TestLifecycleBatchSubmitMatchesSingle: a stream submitted in batches of 16
// leaves the same transitions, detector state and stores as the same stream
// submitted one sample at a time. MinProfiles is out of reach, so no episode
// starts and the served snapshot never moves.
func TestLifecycleBatchSubmitMatchesSingle(t *testing.T) {
	tr := newLiveTrainer(t)
	_, stream := fixtures(t)
	drifted := shifted(stream, &faultinject.DriftSchedule{
		Segments: []faultinject.DriftSegment{{From: 21, To: 60, Factor: 1.6}},
	})
	// Unlabelled samples are stored but not scored.
	drifted[5].CPI, drifted[40].CPI = 0, 0

	type outcome struct {
		transitions       []string
		status            Status
		observations      int
		reservoir, recent []core.Sample
	}
	run := func(batch int) outcome {
		var o outcome
		cfg := episodeConfig(11)
		cfg.MinProfiles = 1000
		cfg.OnTransition = func(from, to State, reason string) {
			o.transitions = append(o.transitions, fmt.Sprintf("%v->%v: %s", from, to, reason))
		}
		c := NewController(tr, cfg)
		defer c.Close()
		for i := 0; i < len(drifted); i += batch {
			c.Submit(drifted[i:min(i+batch, len(drifted))]...)
		}
		o.status = c.Status()
		o.observations = c.detector.Observations()
		o.reservoir, o.recent = c.reservoir.Samples(), c.ring.Samples()
		return o
	}
	single, batched := run(1), run(16)
	if len(single.transitions) == 0 || single.status.State != StateGathering.String() {
		t.Fatalf("stream left state %q after %v; want a confirmed drift", single.status.State, single.transitions)
	}
	if want := len(drifted) - 2; single.observations != want {
		t.Errorf("detector observed %d samples, want the %d labelled ones", single.observations, want)
	}
	if fmt.Sprint(batched.transitions) != fmt.Sprint(single.transitions) {
		t.Errorf("batched transitions\n%q\nwant\n%q", batched.transitions, single.transitions)
	}
	if batched.status != single.status || batched.observations != single.observations {
		t.Errorf("batched status %+v (%d observations)\nwant %+v (%d)", batched.status, batched.observations, single.status, single.observations)
	}
	if !slices.Equal(batched.reservoir, single.reservoir) || !slices.Equal(batched.recent, single.recent) {
		t.Error("batched submission left different stores")
	}
}

// TestLifecycleCloseStopsEpisode: Close during a live episode cancels it and
// leaves the served snapshot untouched; Submits after Close are no-ops.
func TestLifecycleCloseStopsEpisode(t *testing.T) {
	tr := newLiveTrainer(t)
	_, stream := fixtures(t)
	before := tr.Snapshot()
	c := NewController(tr, episodeConfig(19))

	drifted := shifted(stream, &faultinject.DriftSchedule{
		Segments: []faultinject.DriftSegment{{From: 1, Factor: 1.6}},
	})
	for _, s := range drifted {
		c.Submit(s)
		if c.State() == StateRetraining {
			break
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	subs := c.Status().Submissions
	c.Submit(drifted[0])
	if got := c.Status().Submissions; got != subs {
		t.Errorf("Submit after Close advanced submissions %d -> %d", subs, got)
	}
	// The cancelled episode may have lost the canary race benignly, but it
	// must never have published mid-flight over the incumbent... unless it
	// legitimately promoted before Close won the race.
	st := c.Status()
	if st.Promotions == 0 && tr.Snapshot() != before {
		t.Error("cancelled episode replaced the served snapshot without a promotion")
	}
}
