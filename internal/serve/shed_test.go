package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hsmodel/internal/core"
)

// TestBatcherShedsOnFullQueue pins the shedding contract deterministically:
// the worker is parked inside a snapshot load, the queue is filled to
// capacity, and the next submission must be rejected immediately with
// ErrOverloaded — not blocked — while everything accepted is still answered
// after the worker resumes.
func TestBatcherShedsOnFullQueue(t *testing.T) {
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
		maxBatch:   1,
		maxWait:    time.Millisecond,
		queueDepth: 1,
		snap:       snap,
		onShed:     func() { sheds.Add(1) },
	})
	defer b.Close()

	// First job: the worker takes it off the queue, gathers (maxBatch 1),
	// and parks in snap(); the queue is now empty.
	first := make(chan error, 1)
	go func() {
		_, err := predictOneJob(context.Background(), b, valid[0].X, valid[0].HW)
		first <- err
	}()
	<-entered

	// Second job fills the one-slot queue; the third must shed.
	second := make(chan error, 1)
	go func() {
		_, err := predictOneJob(context.Background(), b, valid[1].X, valid[1].HW)
		second <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second job never enqueued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := predictOneJob(context.Background(), b, valid[2].X, valid[2].HW); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third predict err = %v, want ErrOverloaded", err)
	}
	if got := sheds.Load(); got != 1 {
		t.Fatalf("shed callback fired %d times, want 1", got)
	}

	// Release the worker: both accepted jobs get real answers.
	close(gate)
	for i, ch := range []chan error{first, second} {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("accepted job %d: %v", i+1, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("accepted job %d never answered", i+1)
		}
	}
}

// TestShedMapsTo429 checks the HTTP mapping: ErrOverloaded becomes 429 with
// a Retry-After hint, and the shed shows up in /metrics.
func TestShedMapsTo429(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, ErrOverloaded)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}

	s, ts := newTestServer(t, Config{})
	s.metrics.shedsTotal.Add(3)
	_, body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "hsserve_sheds_total 3") {
		t.Errorf("metrics missing sheds counter:\n%s", body)
	}
}
