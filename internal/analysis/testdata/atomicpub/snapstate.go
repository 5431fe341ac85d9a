// Golden fixture for atomicpub: fields published through sync/atomic must
// never be touched plainly anywhere in the package; typed atomic fields must
// be Stored, not assigned.
package snapstate

import "sync/atomic"

type state struct {
	count   uint64
	spare   uint64 // never touched atomically; plain access is fine
	snap    atomic.Pointer[int]
	flag    atomic.Bool
	version uint64
	ticks   uint64
}

// newState may initialize plainly: nothing is published yet.
func newState() *state {
	s := &state{}
	s.count = 0
	s.version = 1
	return s
}

// Inc is the sanctioned protocol for count.
func (s *state) Inc() {
	atomic.AddUint64(&s.count, 1)
}

// Publish is the sanctioned protocol for snap and flag.
func (s *state) Publish(v *int) {
	s.snap.Store(v)
	s.flag.Store(true)
}

// BumpPlain writes count without the atomic API — races every Inc.
func (s *state) BumpPlain() {
	s.count++ // want `plain write of s.count, which is accessed via sync/atomic`
}

// ReadPlain reads count without the atomic API — may observe a torn or
// stale value relative to Inc.
func (s *state) ReadPlain() uint64 {
	return s.count // want `plain read of s.count, which is accessed via sync/atomic`
}

// EscapePlain hands count's address to a non-atomic callee.
func (s *state) EscapePlain() {
	scribble(&s.count) // want `plain read of s.count, which is accessed via sync/atomic`
}

func scribble(p *uint64) { *p = 7 }

// Reset reassigns a typed atomic field wholesale, bypassing Store.
func (s *state) Reset() {
	s.snap = atomic.Pointer[int]{} // want `assignment to atomic field s.snap bypasses Store`
}

// Spare never meets sync/atomic, so plain access is legal.
func (s *state) Spare() uint64 {
	s.spare++
	return s.spare
}

// AllAtomic keeps version consistent everywhere it is touched.
func (s *state) AllAtomic() uint64 {
	atomic.AddUint64(&s.version, 1)
	return atomic.LoadUint64(&s.version)
}

// Tick touches ticks atomically only inside the goroutine it spawns. The
// atomic-field union reaches spawned bodies of other functions.
func (s *state) Tick() {
	go func() {
		atomic.AddUint64(&s.ticks, 1)
	}()
}

// Ticks reads ticks plainly, racing Tick's goroutine.
func (s *state) Ticks() uint64 {
	return s.ticks // want `plain read of s.ticks, which is accessed via sync/atomic`
}

// --- package-level var: same contract, different scope ---

var total uint64

func Add(n uint64) {
	atomic.AddUint64(&total, n)
}

func Drain() uint64 {
	t := total // want `plain read of total, which is accessed via sync/atomic`
	return t
}
