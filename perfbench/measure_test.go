package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		wantP float64
	}{
		{2000, 99}, // p99.9 would leave 2 beyond
		{11000, 99.9},
		{420, 95}, // p99 leaves 4, p95 leaves 21
		{40, 75},  // p90 leaves 4, p75 leaves 10
		{21, 50},  // p75 leaves 5, p50 leaves 10
		{11, 100}, // p50 leaves 5: fall back to the maximum
		{3, 100},
	}
	for _, c := range cases {
		q := tail(seq(c.n))
		if q.P != c.wantP || q.N != c.n {
			t.Errorf("n=%d: got p%v over %d, want p%v", c.n, q.P, q.N, c.wantP)
			continue
		}
		beyond := 0
		for _, v := range seq(c.n) {
			if v > q.Value {
				beyond++
			}
		}
		if q.P < 100 && beyond < minBeyond {
			t.Errorf("n=%d p%v: only %d samples beyond %v", c.n, q.P, beyond, q.Value)
		}
		if q.P == 100 && q.Value != float64(c.n) {
			t.Errorf("n=%d: fallback tail %v is not the maximum", c.n, q.Value)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if got := percentile(s, 50).Value; got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(s, 100).Value; got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// fakeClock advances only when slept or when an operation takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	start := c.now
	period := 5 * time.Millisecond
	// Operation 1 stalls for 12ms; every other takes 1ms.
	ops := openLoop(c, start, period, until(start.Add(30*time.Millisecond)), func(i int) {
		d := time.Millisecond
		if i == 1 {
			d = 12 * time.Millisecond
		}
		c.now = c.now.Add(d)
	})
	if len(ops) != 6 {
		t.Fatalf("got %d ops, want 6", len(ops))
	}
	// Ops 2 and 3 queue behind the stall: sent late, timed from due.
	wantLat := []time.Duration{1, 12, 8, 4, 1, 1}
	wantLate := []time.Duration{0, 0, 7, 3, 0, 0}
	for i, o := range ops {
		if o.Due != start.Add(time.Duration(i)*period) {
			t.Errorf("op %d due %v", i, o.Due.Sub(start))
		}
		if o.Latency() != wantLat[i]*time.Millisecond {
			t.Errorf("op %d latency %v, want %vms", i, o.Latency(), wantLat[i])
		}
		if o.Late() != wantLate[i]*time.Millisecond {
			t.Errorf("op %d late %v, want %vms", i, o.Late(), wantLate[i])
		}
	}
}

func TestClosedLoopDueAtPreviousCompletion(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	end := c.now.Add(10 * time.Millisecond)
	ops := closedLoop(c, until(end), func(int) { c.now = c.now.Add(3 * time.Millisecond) })
	if len(ops) != 4 {
		t.Fatalf("got %d ops, want 4", len(ops))
	}
	for i, o := range ops {
		if o.Latency() != 3*time.Millisecond || o.Late() != 0 {
			t.Errorf("op %d latency %v late %v", i, o.Latency(), o.Late())
		}
		if i > 0 && o.Due != ops[i-1].Done {
			t.Errorf("op %d not due at the previous completion", i)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		// Two overlapping children cover [10,50): 40ms, counted once.
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(50)},
		// A disjoint child [60,70) and one clipped at the parent's end.
		{ID: 4, Parent: 1, Name: "c", Start: at(60), End: at(70)},
		{ID: 5, Parent: 1, Name: "d", Start: at(95), End: at(120)},
		// A grandchild only reduces its own parent.
		{ID: 6, Parent: 2, Name: "g", Start: at(15), End: at(20)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 45, 2: 25, 3: 20, 4: 10, 5: 25, 6: 5}
	for id, w := range want {
		if self[id] != w*time.Millisecond {
			t.Errorf("span %d self %v, want %vms", id, self[id], w)
		}
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	if tr.newID() != 0 {
		t.Error("nil tracer handed out an id")
	}
	tr.add(span{Name: "x"})
	tr.record("y", 0, time.Now(), 1)
	if tr.all() != nil {
		t.Error("nil tracer kept spans")
	}
}
