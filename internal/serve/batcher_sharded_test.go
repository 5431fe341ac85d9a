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

// TestShardedBatcherDrainOnClose: with multiple shards, Close must still lose
// zero accepted jobs — every prediction either gets a real answer, a clean
// ErrClosed, or a clean ErrOverloaded, across all shard queues, and the
// flush-size observations account for exactly the answered predictions.
func TestShardedBatcherDrainOnClose(t *testing.T) {
	tr := newTestTrainer(t)
	_, valid := testData(t)

	var flushed atomic.Int64
	b := newBatcher(batcherConfig{
		shards:     4,
		maxBatch:   8,
		maxWait:    20 * time.Millisecond,
		queueDepth: 4,
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
			cpi, err := b.Predict(context.Background(), v.X, v.HW)
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
		t.Fatal("sharded shutdown left requests hanging")
	}
	if got := answered.Load() + rejected.Load() + shed.Load(); got != n {
		t.Fatalf("answered %d + rejected %d + shed %d != %d submitted",
			answered.Load(), rejected.Load(), shed.Load(), n)
	}
	if answered.Load() == 0 {
		t.Error("sharded drain answered nothing")
	}
	if flushed.Load() != answered.Load() {
		t.Errorf("flush observations account for %d items, want %d answered",
			flushed.Load(), answered.Load())
	}
	t.Logf("answered %d, rejected %d, shed %d across 4 shards",
		answered.Load(), rejected.Load(), shed.Load())
	if _, err := b.Predict(context.Background(), valid[0].X, valid[0].HW); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close predict err = %v, want ErrClosed", err)
	}
}

// TestShardedWorkStealAndShedAccounting pins the submit policy across shards
// deterministically: with every worker parked, a submission whose round-robin
// home queue is full must steal a slot on the sibling shard (no shed), and
// once every shard's queue is full each further submission sheds exactly once
// into the shared counter.
func TestShardedWorkStealAndShedAccounting(t *testing.T) {
	tr := newTestTrainer(t)
	_, valid := testData(t)

	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	var sheds atomic.Int64
	snap := func() *core.Snapshot {
		entered <- struct{}{}
		<-gate
		return tr.Snapshot()
	}
	b := newBatcher(batcherConfig{
		shards:     2,
		maxBatch:   1,
		maxWait:    time.Millisecond,
		queueDepth: 1,
		snap:       snap,
		onShed:     func() { sheds.Add(1) },
	})
	defer b.Close()
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()

	// Park both workers: each takes one job off its queue (maxBatch 1 ends
	// the gather immediately) and blocks inside snap().
	parked := make([]chan error, 2)
	for i := range parked {
		parked[i] = make(chan error, 1)
	}
	for i := 0; i < 2; i++ {
		ch := parked[i]
		v := valid[i]
		go func() {
			_, err := b.Predict(context.Background(), v.X, v.HW)
			ch <- err
		}()
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d never parked", i)
		}
	}

	// Fill the shard the NEXT submission will call home, directly: the next
	// predict must find its home queue full and steal the sibling's slot.
	home := b.shards[(b.rr.Load()+1)%2]
	stuffed := b.getJob()
	stuffed.x1[0], stuffed.hw1[0] = valid[2].X, valid[2].HW
	stuffed.xs, stuffed.hws, stuffed.out = stuffed.x1[:1], stuffed.hw1[:1], stuffed.o1[:1]
	home.queue <- stuffed

	stolen := make(chan error, 1)
	go func() {
		_, err := b.Predict(context.Background(), valid[3].X, valid[3].HW)
		stolen <- err
	}()
	// The steal lands on the sibling queue; nothing sheds.
	for deadline := time.Now().Add(5 * time.Second); b.Queued() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("stolen submission never enqueued on the sibling shard")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := sheds.Load(); got != 0 {
		t.Fatalf("work-steal shed %d submissions, want 0", got)
	}

	// Every queue is now full: each further submission sheds, and the shared
	// counter sums across shards.
	for i := 0; i < 3; i++ {
		if _, err := b.Predict(context.Background(), valid[4+i].X, valid[4+i].HW); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("overflow predict %d err = %v, want ErrOverloaded", i, err)
		}
	}
	if got := sheds.Load(); got != 3 {
		t.Fatalf("shed counter = %d, want 3", got)
	}

	// Release the workers: every accepted job — parked, stuffed, stolen —
	// gets a real answer.
	close(gate)
	released = true
	for i, ch := range parked {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("parked job %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("parked job %d never answered", i)
		}
	}
	select {
	case err := <-stolen:
		if err != nil {
			t.Errorf("stolen job: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stolen job never answered")
	}
	select {
	case <-stuffed.done:
		if stuffed.err != nil || stuffed.o1[0] <= 0 {
			t.Errorf("stuffed job: cpi=%v err=%v", stuffed.o1[0], stuffed.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stuffed job never answered")
	}
}

// TestPredictManyBitIdenticalToSnapshot: the multi-item batch path — one job,
// contiguous PredictBatch sweeps, pooled buffers — must answer every item
// Float64bits-identical to a direct per-call Snapshot.PredictShard. Run twice
// so the second pass exercises fully warmed pools.
func TestPredictManyBitIdenticalToSnapshot(t *testing.T) {
	tr := newTestTrainer(t)
	_, valid := testData(t)
	b := newBatcher(batcherConfig{shards: 2, maxBatch: 4, maxWait: time.Millisecond, queueDepth: 16, snap: tr.Snapshot})
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

// BenchmarkServePredictBatch measures the steady-state serving batch path end
// to end — pooled job, one queue round trip, contiguous PredictBatch sweeps —
// and asserts its allocation profile in the report (the hot path must be
// zero-allocation once pools are warm).
func BenchmarkServePredictBatch(b *testing.B) {
	tr := newTestTrainer(b)
	// MaxBatch 1: the serial benchmark's single multi-item job flushes
	// immediately instead of waiting out the gather window.
	s, err := New(Config{Trainer: tr, Shards: 1, MaxBatch: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	_, valid := testData(b)

	const batch = 64
	xs := make([]profile.Characteristics, batch)
	hws := make([]hwspace.Config, batch)
	for i := range xs {
		v := valid[i%len(valid)]
		xs[i], hws[i] = v.X, v.HW
	}
	out := make([]float64, batch)
	ctx := context.Background()
	if err := s.PredictMany(ctx, xs, hws, out); err != nil { // warm pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PredictMany(ctx, xs, hws, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch), "preds/op")
}
