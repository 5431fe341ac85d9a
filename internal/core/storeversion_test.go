package core

import (
	"context"
	"sync"
	"testing"

	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
)

// mutatingEvaluator injects sample-store mutations from inside a training
// run: on its first fitness call it invokes add (an AddSamples closure), and
// it can panic a bounded number of times to knock the genetic rung over so
// the stepwise rung runs within the same training run.
type mutatingEvaluator struct {
	inner  genetic.Evaluator
	add    func()
	panics int // remaining injected panics

	mu    sync.Mutex
	calls int
}

func (e *mutatingEvaluator) Fitness(spec regress.Spec) float64 {
	e.mu.Lock()
	e.calls++
	first := e.calls == 1
	doPanic := e.panics > 0
	if doPanic {
		e.panics--
	}
	e.mu.Unlock()
	if first {
		e.add()
	}
	if doPanic {
		panic("storeversion test: injected evaluator fault")
	}
	return e.inner.Fitness(spec)
}

// TestRetrainCapturesConsistentStore is the regression test for the
// retrain-vs-AddSamples interleaving fix: a training run whose genetic rung
// dies AFTER new samples arrived must not let the stepwise rung silently
// refit over the grown store. Both rungs fit the capture taken at the run's
// start; the samples added mid-run take effect at the next run. Run under
// -race: concurrent feeders call AddSamples while the run is in flight.
func TestRetrainCapturesConsistentStore(t *testing.T) {
	m := newSmallModeler(t)
	initialRows := m.NumSamples()
	late := smallCollector().Collect(smallApps(), 5, 99)

	var inj *mutatingEvaluator
	m.WrapEvaluator = func(inner genetic.Evaluator) genetic.Evaluator {
		if inj == nil {
			inj = &mutatingEvaluator{
				inner:  inner,
				add:    func() { m.AddSamples(late) },
				panics: 1, // kill the genetic rung once; stepwise then runs
			}
		} else {
			inj.inner = inner
		}
		return inj
	}

	// Background feeders mutate the store during the episode, each for at
	// most feederAdds calls: enough to race the capture and the rungs, while
	// the store stays bounded. The mid-episode growth asserted below comes
	// from mutatingEvaluator, not from the feeders.
	const feederAdds = 500
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < feederAdds; i++ {
				select {
				case <-stop:
					return
				default:
					if err := m.AddSamples(late[:1]); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}

	err := m.Train(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.Rung != RungStepwise {
		t.Fatalf("rung = %v, want stepwise (report: %v)", rep.Rung, rep)
	}

	// The episode captured the store before the first fitness call added
	// rows, so the published model must reflect exactly the initial rows.
	if rep.SampleRows != initialRows {
		t.Errorf("episode captured %d rows, want the %d present at episode start", rep.SampleRows, initialRows)
	}
	if got := m.Snapshot().TrainedRows(); got != initialRows {
		t.Errorf("snapshot trained on %d rows, want %d: late-arriving samples were half-included", got, initialRows)
	}
	if n := m.NumSamples(); n <= initialRows {
		t.Fatalf("store did not grow mid-episode (%d rows): the race was not exercised", n)
	}
	// The version audit trail: the store has moved past the trained version.
	if m.StoreVersion() <= rep.SampleVersion {
		t.Errorf("store version %d not past trained version %d despite mid-episode adds",
			m.StoreVersion(), rep.SampleVersion)
	}

	// The next update picks the grown store up whole.
	m.WrapEvaluator = nil
	grown := m.NumSamples()
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().TrainedRows(); got != grown {
		t.Errorf("post-episode update trained on %d rows, want the full %d", got, grown)
	}
}
