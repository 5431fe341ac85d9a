// Fixture for the lockorder analyzer: the Trainer two-lock protocol.
// trainMu serializes training runs and must never be acquired while the
// sample-store lock mu is held; every Lock needs an Unlock in the same
// function.
package lockorder

import "sync"

type Trainer struct {
	trainMu sync.Mutex
	mu      sync.Mutex
	samples int
}

// train follows the documented order: trainMu first, then mu. Legal.
func (t *Trainer) train() {
	t.trainMu.Lock()
	defer t.trainMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples++
}

// inverted acquires trainMu while mu is held: the classic deadlock with
// train() running concurrently.
func (t *Trainer) inverted() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trainMu.Lock() // want `trainMu acquired while mu is held`
	defer t.trainMu.Unlock()
}

// invertedDirect is the same inversion with explicit unlocks.
func (t *Trainer) invertedDirect() {
	t.mu.Lock()
	t.trainMu.Lock() // want `trainMu acquired while mu is held`
	t.trainMu.Unlock()
	t.mu.Unlock()
}

// leak locks mu and never releases it.
func (t *Trainer) leak() {
	t.mu.Lock() // want `mu is locked but never unlocked in this function`
	t.samples++
}

// lockTrainMu is a helper that acquires trainMu; calling it with mu held is
// the inversion one call level removed.
func (t *Trainer) lockTrainMu() {
	t.trainMu.Lock()
	defer t.trainMu.Unlock()
}

func (t *Trainer) indirectInversion() {
	t.mu.Lock()
	t.lockTrainMu() // want `call to lockTrainMu acquires trainMu while mu is held`
	t.mu.Unlock()
}

// retrain calls the trainMu-taking helper with nothing held. Legal.
func (t *Trainer) retrain() {
	t.lockTrainMu()
}

// handoff holds one trainer's mu while taking another trainer's trainMu:
// different lock instances, no ordering between them.
func handoff(a, b *Trainer) {
	a.mu.Lock()
	b.trainMu.Lock()
	b.trainMu.Unlock()
	a.mu.Unlock()
}

// closureScope spawns a goroutine that takes trainMu; the closure runs at a
// different time than its declaration, so no order is implied by the
// enclosing mu.
func (t *Trainer) closureScope() {
	t.mu.Lock()
	go func() {
		t.trainMu.Lock()
		defer t.trainMu.Unlock()
	}()
	t.mu.Unlock()
}

// callsClosureScope holds mu while calling closureScope, whose only trainMu
// lock is inside the goroutine it spawns. The spawned body has its own
// summary and runs at a different time, so the call implies no trainMu-after-mu
// order. But closureScope itself locks mu, which is already held: the call
// deadlocks on the non-reentrant mutex.
func (t *Trainer) callsClosureScope() {
	t.mu.Lock()
	t.closureScope() // want `call to closureScope locks mu, which is already held`
	t.mu.Unlock()
}

// tryBump only TryLocks mu, which never blocks.
func (t *Trainer) tryBump() {
	if t.mu.TryLock() {
		t.samples++
		t.mu.Unlock()
	}
}

// callsTryBump holds mu while calling a function that TryLocks it: the
// TryLock fails instead of waiting, so there is no deadlock to report.
func (t *Trainer) callsTryBump() {
	t.mu.Lock()
	t.tryBump()
	t.mu.Unlock()
}

type store struct {
	rw sync.RWMutex
	m  map[string]int
}

// get read-locks and forgets RUnlock.
func (s *store) get(k string) int {
	s.rw.RLock() // want `rw is locked but never unlocked in this function`
	return s.m[k]
}

// getGuarded is the correct form.
func (s *store) getGuarded(k string) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.m[k]
}
