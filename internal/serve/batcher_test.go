package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/profile"
)

// predictOneJob submits one prediction to b as a one-item PredictMany job:
// the batcher's unit of work, with the gather window, shedding and drain of
// any predict:batch request.
func predictOneJob(ctx context.Context, b *batcher, x profile.Characteristics, hw hwspace.Config) (float64, error) {
	out := make([]float64, 1)
	err := b.PredictMany(ctx, []profile.Characteristics{x}, []hwspace.Config{hw}, out)
	return out[0], err
}

// TestBatcherRespectsMaxBatch floods the queue before the worker can drain
// it and checks no flush exceeds the cap while everything is answered.
func TestBatcherRespectsMaxBatch(t *testing.T) {
	tr := newTestTrainer(t)
	_, valid := testData(t)

	var sizes []int
	var mu sync.Mutex
	b := newBatcher(batcherConfig{
		maxBatch:   4,
		maxWait:    5 * time.Millisecond,
		queueDepth: 64,
		snap:       tr.Snapshot,
		observe: func(n int) {
			mu.Lock()
			sizes = append(sizes, n)
			mu.Unlock()
		},
	})
	defer b.Close()

	const n = 40
	var wg sync.WaitGroup
	var ok atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := valid[i%len(valid)]
			if cpi, err := predictOneJob(context.Background(), b, v.X, v.HW); err != nil || cpi <= 0 {
				t.Errorf("predict %d: cpi=%v err=%v", i, cpi, err)
			} else {
				ok.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if ok.Load() != n {
		t.Fatalf("answered %d of %d", ok.Load(), n)
	}
	mu.Lock()
	defer mu.Unlock()
	var total int
	for _, s := range sizes {
		if s > 4 {
			t.Errorf("flush of %d exceeds maxBatch 4", s)
		}
		total += s
	}
	if total != n {
		t.Errorf("flushed %d predictions, want %d", total, n)
	}
}

// TestBatcherContextCancel: a caller that gives up on a queued job must not
// hang the worker or leak the result.
func TestBatcherContextCancel(t *testing.T) {
	tr := newTestTrainer(t)
	_, valid := testData(t)
	b := newBatcher(batcherConfig{maxBatch: 8, maxWait: time.Millisecond, queueDepth: 8, snap: tr.Snapshot})
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := predictOneJob(ctx, b, valid[0].X, valid[0].HW); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The batcher still works for live callers afterwards.
	if cpi, err := predictOneJob(context.Background(), b, valid[0].X, valid[0].HW); err != nil || cpi <= 0 {
		t.Fatalf("post-cancel predict: cpi=%v err=%v", cpi, err)
	}
}

// TestBatcherUntrained propagates ErrNotTrained per job.
func TestBatcherUntrained(t *testing.T) {
	tr := core.NewTrainer(nil)
	_, valid := testData(t)
	b := newBatcher(batcherConfig{maxBatch: 8, maxWait: time.Millisecond, queueDepth: 8, snap: tr.Snapshot})
	defer b.Close()
	if _, err := predictOneJob(context.Background(), b, valid[0].X, valid[0].HW); !errors.Is(err, core.ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
}

// TestBatcherDoubleClose must be idempotent.
func TestBatcherDoubleClose(t *testing.T) {
	tr := core.NewTrainer(nil)
	b := newBatcher(batcherConfig{maxBatch: 8, maxWait: time.Millisecond, queueDepth: 8, snap: tr.Snapshot})
	b.Close()
	b.Close()
}

// TestBatcherDrainOnClose: under 200 concurrent submitters, Close must lose
// zero accepted jobs — every prediction either gets a real answer, a clean
// ErrClosed, or a clean ErrOverloaded — and the flush-size observations
// account for exactly the answered predictions.
func TestBatcherDrainOnClose(t *testing.T) {
	tr := newTestTrainer(t)
	_, valid := testData(t)

	var flushed atomic.Int64
	b := newBatcher(batcherConfig{
		maxBatch:   8,
		maxWait:    20 * time.Millisecond,
		queueDepth: 16,
		snap:       tr.Snapshot,
		observe:    func(n int) { flushed.Add(int64(n)) },
	})

	const n = 200
	var (
		answered atomic.Int64
		rejected atomic.Int64
		shed     atomic.Int64
		wg       sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := valid[i%len(valid)]
			cpi, err := predictOneJob(context.Background(), b, v.X, v.HW)
			switch {
			case err == nil && cpi > 0:
				answered.Add(1)
			case errors.Is(err, ErrClosed):
				rejected.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("request %d: cpi=%v err=%v", i, cpi, err)
			}
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); b.Queued() == 0 && answered.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no request ever reached the batcher")
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown left requests hanging")
	}
	if got := answered.Load() + rejected.Load() + shed.Load(); got != n {
		t.Fatalf("answered %d + rejected %d + shed %d != %d submitted",
			answered.Load(), rejected.Load(), shed.Load(), n)
	}
	if answered.Load() == 0 {
		t.Error("drain answered nothing")
	}
	if flushed.Load() != answered.Load() {
		t.Errorf("flush observations account for %d items, want %d answered",
			flushed.Load(), answered.Load())
	}
	t.Logf("answered %d, rejected %d, shed %d",
		answered.Load(), rejected.Load(), shed.Load())
	if _, err := predictOneJob(context.Background(), b, valid[0].X, valid[0].HW); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close predict err = %v, want ErrClosed", err)
	}
}

// TestPredictManyBitIdenticalToSnapshot: the multi-item batch path — one job,
// contiguous PredictBatch sweeps, pooled buffers — must answer every item
// Float64bits-identical to a direct per-call Snapshot.PredictShard. Run twice
// so the second pass exercises fully warmed pools.
func TestPredictManyBitIdenticalToSnapshot(t *testing.T) {
	tr := newTestTrainer(t)
	_, valid := testData(t)
	b := newBatcher(batcherConfig{maxBatch: 4, maxWait: time.Millisecond, queueDepth: 16, snap: tr.Snapshot})
	defer b.Close()

	snap := tr.Snapshot()
	xs := make([]profile.Characteristics, len(valid))
	hws := make([]hwspace.Config, len(valid))
	for i, v := range valid {
		xs[i], hws[i] = v.X, v.HW
	}
	out := make([]float64, len(valid))
	for pass := 0; pass < 2; pass++ {
		for i := range out {
			out[i] = 0
		}
		if err := b.PredictMany(context.Background(), xs, hws, out); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for i := range valid {
			want, err := snap.PredictShard(xs[i], hws[i])
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("pass %d item %d: batch %v != snapshot %v", pass, i, out[i], want)
			}
		}
	}

	// Empty batches are a no-op, not a queue round trip.
	if err := b.PredictMany(context.Background(), nil, nil, nil); err != nil {
		t.Fatalf("empty predictMany: %v", err)
	}
}
