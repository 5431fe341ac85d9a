package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, highest first.
// Reporting from a fixed ladder keeps a metric's meaning stable across runs
// whose sample counts differ slightly.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// quantile is one order statistic together with the sample count it was
// taken from.
type quantile struct {
	P     float64 // percentile, 0-100
	Value float64
	N     int
}

// rank is the 0-based nearest-rank index of percentile p among n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(k, 0), n-1)
}

// percentile returns the nearest-rank percentile p of samples.
func percentile(samples []float64, p float64) quantile {
	if len(samples) == 0 {
		return quantile{P: p}
	}
	s := slices.Clone(samples)
	sort.Float64s(s)
	return quantile{P: p, Value: s[rank(len(s), p)], N: len(s)}
}

// median is the middle of samples (the mean of the two middle values for an
// even count); 0 when empty.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := slices.Clone(samples)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest ladder percentile with at least minBeyond samples
// strictly above its rank. With too few samples for any ladder entry it
// returns the maximum, reported as percentile 100.
func tail(samples []float64) quantile {
	n := len(samples)
	for _, p := range tailLadder {
		if n-1-rank(n, p) >= minBeyond {
			return percentile(samples, p)
		}
	}
	return percentile(samples, 100)
}

// op is one timed operation of an open- or closed-loop generator.
type op struct {
	Due, Sent, Done time.Time
}

// Latency is the operation's latency from when it was due, so a stall also
// charges the requests queued behind it.
func (o op) Latency() time.Duration { return o.Done.Sub(o.Due) }

// Late is how far behind its schedule the generator sent the operation.
func (o op) Late() time.Duration { return o.Sent.Sub(o.Due) }

// clock abstracts time for the generators so tests can drive them.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop issues do(i) at start + i*period until stop(i, due) reports
// true, one at a time, and records each operation against its due time. A
// slow operation delays the ones after it; their latency still counts from
// when they were due.
func openLoop(c clock, start time.Time, period time.Duration, stop func(i int, due time.Time) bool, do func(i int)) []op {
	var ops []op
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if stop(i, due) {
			return ops
		}
		c.SleepUntil(due)
		sent := c.Now()
		do(i)
		ops = append(ops, op{Due: due, Sent: sent, Done: c.Now()})
	}
}

// closedLoop issues do(i) back to back until stop(i, now) reports true.
// Each operation is due the moment the previous one completed, so Late
// measures the generator's own overhead between operations.
func closedLoop(c clock, stop func(i int, now time.Time) bool, do func(i int)) []op {
	var ops []op
	due := c.Now()
	for i := 0; !stop(i, due); i++ {
		sent := c.Now()
		do(i)
		done := c.Now()
		ops = append(ops, op{Due: due, Sent: sent, Done: done})
		due = done
	}
	return ops
}

// until is a loop stop condition: the wall-clock deadline end.
func until(end time.Time) func(int, time.Time) bool {
	return func(_ int, now time.Time) bool { return !now.Before(end) }
}

// span is one traced interval. Parent is 0 for a root span.
type span struct {
	ID, Parent int64
	Name       string
	Start, End time.Time
	// N is a work count attached to the span (items, instructions, bytes).
	N int64
}

func (s span) Dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory for the length of a run. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	next      atomic.Int64
	mu        sync.Mutex
	spans     []span
	exchanges []exchange // sampled wire bodies, see handler
	counters  map[string]float64
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span that started at start and ends now; it returns the end.
func (t *tracer) record(name string, parent int64, start time.Time, n int64) time.Time {
	end := time.Now()
	t.add(span{Parent: parent, Name: name, Start: start, End: end, N: n})
	return end
}

// count adds v to a named layer counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counters == nil {
		t.counters = make(map[string]float64)
	}
	t.counters[name] += v
}

// counter reads a named layer counter.
func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// named returns the spans with the given name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Overlapping children (parallel work)
// are counted once, and a child running past its parent is clipped.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside p.
func covered(p span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo.Before(p.Start) {
			lo = p.Start
		}
		if hi.After(p.End) {
			hi = p.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.lo.After(cur.hi):
			if v.hi.After(cur.hi) {
				cur.hi = v.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}
