// Request coalescing: concurrent predict:batch requests are gathered off a
// bounded queue into batched passes over the served snapshot
// (Concorde-style micro-batching, arXiv:2503.23076). Each model entry owns
// one batcher: one bounded queue drained by one worker, so every concurrent
// client batch on the entry shares one gather window. A submission that
// finds the queue full is shed, and jobs (with their done channels) are
// pooled so a steady-state batch allocates nothing. Each flush loads the
// snapshot exactly once and answers the whole batch through
// Snapshot.PredictBatch, so every prediction in a flush is answered by the
// same model version and is bit-identical to a direct Snapshot.PredictShard
// call — the batcher only amortizes queueing, allocation, and snapshot
// loads, it never changes the arithmetic. A single-shard prediction does
// not come here: it answers on its own request (entry.predict), since a
// batch of one has nothing to wait for.
package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/profile"
)

// ErrClosed is returned to predictions made after shutdown began.
var ErrClosed = errors.New("serve: server is shutting down")

// ErrOverloaded is returned when the batcher's queue is full: the server
// sheds the request immediately (HTTP 429 upstream) instead of stacking
// blocked submitters behind a worker that is already saturated.
var ErrOverloaded = errors.New("serve: prediction queue full")

// predictJob is one submission: a whole client batch sharing one queue round
// trip. The worker fills out[i] for every item, sets err, and signals done
// exactly once; done is buffered so an abandoned (ctx-cancelled) job never
// blocks the worker.
type predictJob struct {
	xs  []profile.Characteristics
	hws []hwspace.Config
	out []float64
	err error

	done chan struct{} // buffered(1), reused across pool recycles
}

// batcherConfig carries the construction parameters of a batcher.
type batcherConfig struct {
	// maxBatch caps the jobs gathered into one flush.
	maxBatch int
	// maxWait is the gather window after the first job of a flush arrives.
	maxWait time.Duration
	// queueDepth bounds the queue.
	queueDepth int
	// snap loads the served snapshot (required).
	snap func() *core.Snapshot
	// observe, when non-nil, receives each flush's item count.
	observe func(batchSize int)
	// onShed, when non-nil, fires once per shed submission.
	onShed func()
}

// batcher owns the bounded queue, its gather/flush worker, and the
// worker-owned flush buffers (touched only by the worker goroutine).
//
// Shutdown protocol (the "lose zero in-flight requests" guarantee): Close
// marks the batcher closed so new predictions are rejected with ErrClosed,
// waits for submitters already past the closed-check to finish enqueueing,
// then closes the queue; the worker drains every queued job — each gets a
// real prediction — before exiting.
type batcher struct {
	cfg   batcherConfig
	queue chan *predictJob
	jobs  sync.Pool // *predictJob

	mu          sync.Mutex
	closed      bool
	inflight    int  // submitters between the closed-check and the enqueue
	queueClosed bool // the queue channel has been closed

	workerDone chan struct{}

	// Flush state, preallocated to the batcher's high-water marks.
	batch  []*predictJob // gathered jobs, cap maxBatch
	nbatch int
	rowBuf []float64     // contiguous backing for rows
	rows   [][]float64   // chunk of expanded raw rows
	out    []float64     // chunk predictions
	dstJob []*predictJob // chunk scatter targets
	dstIdx []int         // item index within the target job
	timer  *time.Timer   // gather-window timer, reused across flushes
}

// minFlushChunk is the least row-buffer capacity of one sweep: a flush of
// client batches sweeps in well-amortized pieces.
const minFlushChunk = 128

func newBatcher(cfg batcherConfig) *batcher {
	chunk := cfg.maxBatch
	if chunk < minFlushChunk {
		chunk = minFlushChunk
	}
	b := &batcher{
		cfg:        cfg,
		queue:      make(chan *predictJob, cfg.queueDepth),
		workerDone: make(chan struct{}),
		batch:      make([]*predictJob, cfg.maxBatch),
		rowBuf:     make([]float64, chunk*core.NumVars),
		rows:       make([][]float64, chunk),
		out:        make([]float64, chunk),
		dstJob:     make([]*predictJob, chunk),
		dstIdx:     make([]int, chunk),
	}
	for r := range b.rows {
		b.rows[r] = b.rowBuf[r*core.NumVars : (r+1)*core.NumVars]
	}
	go b.run()
	return b
}

// getJob takes a pooled job (allocating only while the pool warms up).
func (b *batcher) getJob() *predictJob {
	if j, ok := b.jobs.Get().(*predictJob); ok {
		return j
	}
	return &predictJob{done: make(chan struct{}, 1)}
}

// putJob recycles an answered job. Only jobs whose done signal has been
// received may be recycled: a ctx-cancelled submitter abandons its job to the
// GC instead, because the worker may still be writing to it.
func (b *batcher) putJob(j *predictJob) {
	j.xs, j.hws, j.out, j.err = nil, nil, nil, nil
	b.jobs.Put(j)
}

// PredictMany submits a whole client batch as one job — one queue round trip
// for len(xs) predictions — and waits for it. out[i] answers (xs[i], hws[i]);
// len(hws) and len(out) must be at least len(xs). A job that was accepted
// into the queue always receives a result (even during shutdown); ctx
// cancellation abandons the wait, and the worker may then still write into
// out, so the caller must discard the buffer (the serve handlers allocate it
// per request). When the queue is full the job is shed with ErrOverloaded
// instead of blocking: under overload the queue is a pressure gauge, not a
// waiting room.
func (b *batcher) PredictMany(ctx context.Context, xs []profile.Characteristics, hws []hwspace.Config, out []float64) error {
	if len(xs) == 0 {
		return nil
	}
	job := b.getJob()
	job.xs, job.hws, job.out = xs, hws, out
	if err := b.submit(job); err != nil {
		return err
	}
	select {
	case <-job.done:
		err := job.err
		b.putJob(job)
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// submit makes a non-blocking enqueue under the drain accounting, shedding
// when the queue is full. On error the job has not been enqueued and is
// recycled here.
func (b *batcher) submit(job *predictJob) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.putJob(job)
		return ErrClosed
	}
	b.inflight++
	b.mu.Unlock()

	select {
	case b.queue <- job:
		b.exitSubmit()
		return nil
	default:
	}
	b.exitSubmit()
	b.putJob(job)
	if b.cfg.onShed != nil {
		b.cfg.onShed()
	}
	return ErrOverloaded
}

// exitSubmit ends a submission critical section, completing a pending Close
// once the last submitter is out.
func (b *batcher) exitSubmit() {
	b.mu.Lock()
	b.inflight--
	if b.closed && b.inflight == 0 && !b.queueClosed {
		b.queueClosed = true
		close(b.queue)
	}
	b.mu.Unlock()
}

// Queued reports the jobs sitting in the queue; the registry sums it across
// entries for the queue-depth gauges.
func (b *batcher) Queued() int { return len(b.queue) }

// Close drains the batcher: it rejects new submissions, lets in-flight ones
// enqueue, answers everything queued, and returns once the worker has
// exited. Safe to call more than once.
func (b *batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		if b.inflight == 0 && !b.queueClosed {
			b.queueClosed = true
			close(b.queue)
		}
	}
	b.mu.Unlock()
	<-b.workerDone
}

// run is the worker: take one job, gather more up to maxBatch/maxWait, then
// answer the whole batch against a single snapshot load. Everything on this
// loop reuses the batcher's preallocated buffers.
//
//hslint:hotpath
func (b *batcher) run() {
	defer close(b.workerDone)
	for {
		job, ok := <-b.queue
		if !ok {
			return
		}
		b.batch[0] = job
		b.nbatch = 1
		b.gather()
		b.flush(b.cfg.snap())
	}
}

// gather collects follow-on jobs for the current flush until the batch is
// full, the wait window expires, or the queue closes. Jobs already queued are
// taken without arming the timer, so a saturated worker never touches it.
//
//hslint:hotpath
func (b *batcher) gather() {
	for b.nbatch < len(b.batch) {
		select {
		case j, ok := <-b.queue:
			if !ok {
				return
			}
			b.batch[b.nbatch] = j
			b.nbatch++
			continue
		default:
		}
		break
	}
	if b.nbatch >= len(b.batch) {
		return
	}
	b.armTimer()
	for b.nbatch < len(b.batch) {
		select {
		case j, ok := <-b.queue:
			if !ok {
				return
			}
			b.batch[b.nbatch] = j
			b.nbatch++
		case <-b.timer.C:
			return
		}
	}
}

// armTimer starts (or re-arms) the reused gather-window timer. A fire racing
// the Stop/drain below can leave a stale tick in the channel; the only
// consequence is one premature — smaller, still correct — flush.
func (b *batcher) armTimer() {
	if b.timer == nil {
		b.timer = time.NewTimer(b.cfg.maxWait)
		return
	}
	if !b.timer.Stop() {
		select {
		case <-b.timer.C:
		default:
		}
	}
	b.timer.Reset(b.cfg.maxWait)
}

// flush answers the gathered batch: every item of every job is expanded into
// the batcher's contiguous row buffer and answered through one
// Snapshot.PredictBatch sweep per chunk, then each job is signalled exactly
// once. The untrained check happens once per flush — item results are
// bit-identical to per-call Snapshot.PredictShard either way.
//
//hslint:hotpath
func (b *batcher) flush(snap *core.Snapshot) {
	batch := b.batch[:b.nbatch]
	items := 0
	if !snap.Trained() {
		for _, j := range batch {
			items += len(j.xs)
			j.err = core.ErrNotTrained
			j.done <- struct{}{}
		}
		b.observe(items)
		return
	}
	pos := 0
	for _, j := range batch {
		j.err = nil
		for i := range j.xs {
			core.Sample{X: j.xs[i], HW: j.hws[i]}.RowInto(b.rows[pos])
			b.dstJob[pos] = j
			b.dstIdx[pos] = i
			pos++
			if pos == len(b.rows) {
				b.sweep(snap, pos)
				items += pos
				pos = 0
			}
		}
	}
	if pos > 0 {
		b.sweep(snap, pos)
		items += pos
	}
	for _, j := range batch {
		j.done <- struct{}{}
	}
	b.observe(items)
}

// sweep answers rows[:n] in one batched snapshot pass and scatters the
// results into their jobs' output slots.
//
//hslint:hotpath
func (b *batcher) sweep(snap *core.Snapshot, n int) {
	// Trained was checked by flush; PredictBatch cannot fail here.
	_ = snap.PredictBatch(b.rows[:n], b.out[:n])
	for t := 0; t < n; t++ {
		b.dstJob[t].out[b.dstIdx[t]] = b.out[t]
	}
}

func (b *batcher) observe(items int) {
	if b.cfg.observe != nil {
		b.cfg.observe(items)
	}
}
