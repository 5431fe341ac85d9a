// Golden fixture for gorolife: every spawn below is either supervised by one
// of the recognized protocols (no want) or a leak (want).
package worker

import (
	"context"
	"net/http"
	"sync"
)

func work()    {}
func process() {}

// --- leaks ---

// Leak spawns a worker nobody joins or cancels.
func Leak() {
	go func() { // want `goroutine started in Leak has no join or cancellation path`
		for {
			work()
		}
	}()
}

type pump struct {
	n       int
	jobs    chan int
	done    chan struct{}
	wg      sync.WaitGroup
	watchWG sync.WaitGroup
	watched chan struct{}
}

// loop runs forever with no channel, WaitGroup, or context discipline.
func (p *pump) loop() {
	for {
		p.n++
	}
}

// StartLoop spawns an in-package method whose transitive body has no
// supervision either.
func (p *pump) StartLoop() {
	go p.loop() // want `goroutine started in pump.StartLoop has no join or cancellation path`
}

// ServeLeaked spawns an out-of-package method and never shuts the server
// down.
func ServeLeaked(hs *http.Server) {
	go hs.ListenAndServe() // want `goroutine started in ServeLeaked has no join or cancellation path`
}

// --- supervised ---

// JoinedLocal uses the classic same-function WaitGroup join.
func JoinedLocal() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// StartJoined spawns a worker that Dones the struct's WaitGroup; CloseJoined
// Waits on it — the join is interprocedural.
func (p *pump) StartJoined() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		work()
	}()
}

func (p *pump) CloseJoined() {
	p.wg.Wait()
}

// StartDrain spawns a worker that ranges the jobs queue and closes done when
// the queue is drained; CloseDrain closes the queue and receives the done
// signal — the batcher's protocol.
func (p *pump) StartDrain() {
	go func() {
		defer close(p.done)
		for range p.jobs {
			process()
		}
	}()
}

func (p *pump) CloseDrain() {
	close(p.jobs)
	<-p.done
}

// StartWatched spawns a worker that Dones watchWG; the only Wait on it runs
// in the goroutine Watch spawns. The join union reaches spawned bodies of
// other functions.
func (p *pump) StartWatched() {
	p.watchWG.Add(1)
	go func() {
		defer p.watchWG.Done()
		work()
	}()
}

// Watch spawns the waiter, which closes watched once the workers are done;
// Watched receives it.
func (p *pump) Watch() {
	go func() {
		p.watchWG.Wait()
		close(p.watched)
	}()
}

func (p *pump) Watched() {
	<-p.watched
}

// Cancellable selects on the context it captured.
func Cancellable(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
				work()
			}
		}
	}()
}

// ErrcPattern sends a single result on a channel the spawner receives.
func ErrcPattern() error {
	errc := make(chan error, 1)
	go func() { errc <- nil }()
	return <-errc
}

// ServeShutdown spawns an out-of-package method but calls a shutdown-shaped
// method on the same root, so the package can stop the goroutine's work.
func ServeShutdown(ctx context.Context, hs *http.Server) {
	go hs.ListenAndServe()
	<-ctx.Done()
	hs.Shutdown(context.Background())
}

// StartCtxArg hands the spawned call a context; cancellation reaches it.
func StartCtxArg(ctx context.Context) {
	go runWith(ctx)
}

func runWith(ctx context.Context) {
	<-ctx.Done()
}
