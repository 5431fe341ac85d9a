package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsmodel/internal/faultinject"
	"hsmodel/internal/genetic"
)

// TestServeWhileTrain hammers lock-free predictions from many goroutines
// while the trainer repeatedly re-specifies the model through the
// degradation ladder. Run under -race (make race / make ci), this is the acceptance test
// for the snapshot architecture: every read must observe a fully fitted
// model — either the previous snapshot or the new one, never a torn state —
// and no prediction may fail while retraining is in flight.
func TestServeWhileTrain(t *testing.T) {
	m, valid := trainSmallModeler(t)
	first := m.Snapshot()
	if first == nil {
		t.Fatal("no snapshot after initial train")
	}

	const readers = 8
	var (
		stop  atomic.Bool
		reads atomic.Int64
		wg    sync.WaitGroup
	)
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				s := valid[(g+i)%len(valid)]
				snap := m.Snapshot()
				if !snap.Trained() {
					errs <- ErrNotTrained
					return
				}
				p, err := snap.PredictShard(s.X, s.HW)
				if err != nil || p <= 0 {
					errs <- err
					return
				}
				if _, err := snap.EvaluateOn(valid[:3]); err != nil {
					errs <- err
					return
				}
				// The run record is readable mid-run too.
				_ = m.Report().String()
				reads.Add(1)
			}
		}(g)
	}

	// Retrain concurrently with the readers: twice healthy (new snapshots
	// published mid-read), once with an evaluator that defeats both search
	// rungs (the prior snapshot must keep serving).
	for round := 0; round < 2; round++ {
		m.Search = genetic.Params{PopulationSize: 12, Generations: 3, Seed: uint64(100 + round)}
		if err := m.Train(context.Background()); err != nil {
			t.Fatalf("round %d: %v (report %v)", round, err, m.Report())
		}
	}
	served := m.Snapshot()
	panicAlways(m)
	if err := m.Train(context.Background()); err == nil {
		t.Fatal("failing ladder returned nil")
	}
	if rep := m.Report(); rep.Rung != RungNone {
		t.Errorf("rung = %v, want none (report %v)", rep.Rung, rep)
	}
	if m.Snapshot() != served {
		t.Error("failed ladder replaced the served snapshot")
	}

	// On a single-CPU machine the retrains can finish before any reader has
	// been scheduled through a full iteration; keep serving until every
	// reader has made progress (bounded, in case one exited on error).
	deadline := time.Now().Add(10 * time.Second)
	for reads.Load() < readers && len(errs) == 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent reader failed: %v", err)
	}
	if reads.Load() == 0 {
		t.Error("readers made no progress")
	}
	if m.Snapshot() == first {
		t.Error("healthy retrains never published a new snapshot")
	}
}

// TestAddSamplesDuringTrain is the acceptance test for the non-blocking
// sample-store contract: AddSamples called concurrently with an in-flight
// warm-started Train must be safe (run under -race via make ci) and must not block until
// the training run completes — a training run captures its evaluator at
// start and holds no lock during the search. Samples added mid-run take
// effect at the next run.
func TestAddSamplesDuringTrain(t *testing.T) {
	m, valid := trainSmallModeler(t)
	before := m.NumSamples()

	// A slow evaluator stretches the search so the adders demonstrably
	// overlap it; OnGeneration gates them until the run has captured its
	// evaluator, so every added sample provably lands mid-run.
	inj := &faultinject.Evaluator{Delay: 200 * time.Microsecond}
	m.WrapEvaluator = func(inner genetic.Evaluator) genetic.Evaluator {
		inj.Inner = inner
		return inj
	}
	searching := make(chan struct{})
	var once sync.Once
	m.Search = genetic.Params{
		PopulationSize: 12, Generations: 4, Seed: 77,
		OnGeneration: func(genetic.GenStats) { once.Do(func() { close(searching) }) },
	}

	training := make(chan error, 1)
	go func() { training <- m.Train(context.Background()) }()
	<-searching

	// Feed samples and read store/model state while the search runs. Every
	// AddSamples must return promptly even though Train is in flight.
	const adders, batches = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				if err := m.AddSamples(valid[(g+i)%len(valid) : (g+i)%len(valid)+1]); err != nil {
					t.Error(err)
				}
				m.NumSamples()
				m.Snapshot().PredictShard(valid[0].X, valid[0].HW)
			}
		}(g)
	}
	wg.Wait()
	if err := <-training; err != nil {
		t.Fatalf("update failed: %v", err)
	}

	if got, want := m.NumSamples(), before+adders*batches; got != want {
		t.Errorf("store has %d samples, want %d", got, want)
	}
	// The samples landed mid-run, so the published model was fitted on the
	// pre-update store; the next run picks them up.
	if rows := m.Snapshot().TrainedRows(); rows != before {
		t.Errorf("in-flight update trained on %d rows, want the captured %d", rows, before)
	}
	if err := m.Train(context.Background()); err != nil {
		t.Fatalf("follow-up update failed: %v", err)
	}
	if rows := m.Snapshot().TrainedRows(); rows != before+adders*batches {
		t.Errorf("follow-up update trained on %d rows, want %d", rows, before+adders*batches)
	}
}

// TestPublishGenerations pins the one publish point: every path that
// replaces the served model — a cold and a warm-started Train, Adopt, and
// the stepwise rung — advances the trainer's generation by exactly one, and
// a failed run advances nothing. Snapshot and Published
// always agree on the served pointer.
func TestPublishGenerations(t *testing.T) {
	m := NewTrainer(nil)
	if p := m.Published(); p.Snapshot != nil || p.Generation != 0 || !p.At.IsZero() {
		t.Fatalf("untrained publication %+v, want the zero record", p)
	}
	m, _ = trainSmallModeler(t)
	want := uint64(1)
	check := func(step string) {
		t.Helper()
		p := m.Published()
		if p.Generation != want {
			t.Fatalf("%s: generation %d, want %d", step, p.Generation, want)
		}
		if p.Snapshot != m.Snapshot() || p.At.IsZero() {
			t.Fatalf("%s: publication %+v disagrees with Snapshot()", step, p)
		}
	}
	check("train")

	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	want++
	check("warm-started train")

	path := t.TempDir() + "/model.json"
	if err := m.Snapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Published().At
	m.Adopt(loaded)
	want++
	check("adopt")
	if m.Snapshot() != loaded || m.Published().At.Before(before) {
		t.Fatal("adopt did not publish the loaded snapshot as the newest record")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Train(cancelled); err == nil {
		t.Fatal("cancelled train succeeded")
	}
	check("failed train")
	if m.Snapshot() != loaded {
		t.Fatal("failed train replaced the served snapshot")
	}

	// One injected panic kills the genetic rung; stepwise publishes.
	panicOnce(m)
	if err := m.Train(context.Background()); err != nil || m.Report().Rung != RungStepwise {
		t.Fatalf("stepwise rung: rung %v err %v", m.Report().Rung, err)
	}
	want++
	check("stepwise rung")
}
