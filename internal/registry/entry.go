package registry

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/lifecycle"
	"hsmodel/internal/profile"
)

// Batcher is the prediction path an Entry serves through. internal/serve
// plugs in its micro-batcher — one bounded queue drained by one worker — via
// Config.NewBatcher; the registry's fallback predicts directly off the
// entry's snapshot, so the package stands alone in tests and in-process
// embedders.
type Batcher interface {
	// Predict answers one shard prediction.
	Predict(ctx context.Context, x profile.Characteristics, hw hwspace.Config) (float64, error)
	// PredictMany answers out[i] for (xs[i], hws[i]); len(hws) and len(out)
	// must be at least len(xs).
	PredictMany(ctx context.Context, xs []profile.Characteristics, hws []hwspace.Config, out []float64) error
	// Queued reports the predictions sitting in the batcher's queue; the
	// registry sums it across entries for aggregate load shedding.
	Queued() int
	// Close drains the batcher: accepted predictions are answered, new ones
	// rejected.
	Close()
}

// directBatcher is the fallback Batcher: unbatched lock-free reads of the
// entry's served snapshot.
type directBatcher struct {
	snap func() *core.Snapshot
}

func (d directBatcher) Predict(_ context.Context, x profile.Characteristics, hw hwspace.Config) (float64, error) {
	return d.snap().PredictShard(x, hw)
}

func (d directBatcher) PredictMany(_ context.Context, xs []profile.Characteristics, hws []hwspace.Config, out []float64) error {
	snap := d.snap()
	for i := range xs {
		v, err := snap.PredictShard(xs[i], hws[i])
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

func (d directBatcher) Queued() int { return 0 }
func (d directBatcher) Close()      {}

// Entry is one registered model: a trainer owning its atomic snapshot, the
// batcher its predict traffic pins to, an optional continuous-learning
// controller sharing the entry's sample stream, and one-at-a-time
// asynchronous updates. The served model's identity (generation, publish
// time) is the trainer's Published record. Entries are created by
// Register/RegisterTrainer and owned by the Registry; Close drains them.
type Entry struct {
	spec      Spec
	reg       *Registry
	trainer   *core.Trainer
	lifecycle *lifecycle.Controller // nil unless Spec.Lifecycle enables it
	batcher   Batcher

	updating atomic.Bool    // one asynchronous update at a time
	updateWG sync.WaitGroup // close waits for the in-flight one
}

// ID returns the entry's registry key.
func (e *Entry) ID() string { return e.spec.ID }

// Application returns the application the entry models; "" matches every
// application on the sample fan-out path.
func (e *Entry) Application() string { return e.spec.Application }

// ArchSpace names the architecture space the entry models.
func (e *Entry) ArchSpace() string { return e.spec.ArchSpace }

// Spec returns the registration spec (value copy).
func (e *Entry) Spec() Spec { return e.spec }

// Trainer returns the entry's trainer.
func (e *Entry) Trainer() *core.Trainer { return e.trainer }

// Lifecycle returns the entry's control loop, nil when disabled.
func (e *Entry) Lifecycle() *lifecycle.Controller { return e.lifecycle }

// Matches reports whether the entry's application scope covers app.
func (e *Entry) Matches(app string) bool {
	return e.spec.Application == "" || e.spec.Application == app
}

// Predict answers one shard prediction through the entry's batcher, after
// the registry-wide admission check (ErrOverloaded once aggregate queue
// depth crosses Config.QueueBound).
func (e *Entry) Predict(ctx context.Context, x profile.Characteristics, hw hwspace.Config) (float64, error) {
	if err := e.reg.admit(); err != nil {
		return 0, err
	}
	return e.batcher.Predict(ctx, x, hw)
}

// PredictMany answers a whole batch through the entry's batcher under the
// same registry-wide admission check as Predict.
func (e *Entry) PredictMany(ctx context.Context, xs []profile.Characteristics, hws []hwspace.Config, out []float64) error {
	if err := e.reg.admit(); err != nil {
		return err
	}
	return e.batcher.PredictMany(ctx, xs, hws, out)
}

// Absorb feeds samples into the entry's store: through the control loop's
// bounded stores when the lifecycle is enabled, directly into the trainer
// otherwise. Returns how many samples were absorbed.
func (e *Entry) Absorb(samples []core.Sample) int {
	if e.lifecycle != nil {
		for _, s := range samples {
			e.lifecycle.Submit(s)
		}
		return len(samples)
	}
	e.trainer.AddSamples(samples)
	return len(samples)
}

// QueueDepth reports the entry's queued predictions.
func (e *Entry) QueueDepth() int { return e.batcher.Queued() }

// TriggerUpdate starts one asynchronous re-specification of the entry's
// model if none is in flight, bounded by timeout and by the registry's
// lifetime (Registry.Close cancels the update's context, so shutdown never
// waits out a training timeout). onDone (optional) receives the outcome; a
// failed or cancelled update never replaces the served snapshot. A
// successful update marks the entry most-recently-trained, which may release
// the featurized evaluator cache of a colder entry (Config.MaxEvalCaches).
func (e *Entry) TriggerUpdate(timeout time.Duration, onDone func(error)) bool {
	if !e.updating.CompareAndSwap(false, true) {
		return false
	}
	e.updateWG.Add(1)
	go func() {
		defer e.updateWG.Done()
		defer e.updating.Store(false)
		ctx, cancel := context.WithTimeout(e.reg.baseCtx, timeout)
		defer cancel()
		err := e.trainer.Update(ctx)
		if err == nil {
			e.reg.touch(e)
		}
		if onDone != nil {
			onDone(err)
		}
	}()
	return true
}

// close drains the entry: the batcher answers everything it accepted, the
// in-flight update (if any) completes, and the control loop shuts down.
func (e *Entry) close() {
	e.batcher.Close()
	e.updateWG.Wait()
	if e.lifecycle != nil {
		e.lifecycle.Close()
	}
}
