package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsmodel/internal/core"
)

// TestBatcherRespectsMaxBatch floods the queue before the worker can drain
// it and checks no flush exceeds the cap while everything is answered.
func TestBatcherRespectsMaxBatch(t *testing.T) {
	tr := newTestTrainer(t)
	_, valid := testData(t)

	var sizes []int
	var mu sync.Mutex
	b := newBatcher(batcherConfig{
		shards:     1,
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
			if cpi, err := b.Predict(context.Background(), v.X, v.HW); err != nil || cpi <= 0 {
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
	if _, err := b.Predict(ctx, valid[0].X, valid[0].HW); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The batcher still works for live callers afterwards.
	if cpi, err := b.Predict(context.Background(), valid[0].X, valid[0].HW); err != nil || cpi <= 0 {
		t.Fatalf("post-cancel predict: cpi=%v err=%v", cpi, err)
	}
}

// TestBatcherUntrained propagates ErrNotTrained per job.
func TestBatcherUntrained(t *testing.T) {
	tr := core.NewTrainer(nil)
	_, valid := testData(t)
	b := newBatcher(batcherConfig{maxBatch: 8, maxWait: time.Millisecond, queueDepth: 8, snap: tr.Snapshot})
	defer b.Close()
	if _, err := b.Predict(context.Background(), valid[0].X, valid[0].HW); !errors.Is(err, core.ErrNotTrained) {
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
