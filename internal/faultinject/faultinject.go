// Package faultinject provides a deterministic fault-injection harness for
// the modeling pipeline's resilience tests: a wrapping Evaluator that
// panics, returns NaN/Inf, or stalls on a fixed schedule; a profile-row
// poisoner; and a model-file corruptor. Every fault is scheduled by call
// count or seeded PRNG — never by wall clock or global randomness — so a
// failing resilience test replays exactly.
//
// The package deliberately depends only on genetic, regress, and rng; the
// degradation-ladder tests in core wire it in through
// core.Trainer.WrapEvaluator without an import cycle.
package faultinject

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
)

// Evaluator wraps an inner fitness evaluator and injects faults on a
// deterministic call-count schedule. The zero schedule (all *Every fields 0)
// is a transparent pass-through, so tests can toggle individual faults.
//
// An Evaluator is safe for concurrent use when the inner evaluator is; the
// schedule counters are atomic.
type Evaluator struct {
	Inner genetic.Evaluator
	// PanicEvery makes every Nth fitness call panic (0 = never).
	PanicEvery int
	// MaxPanics caps the number of injected panics; 0 means unlimited.
	// A cap of 1 models a transient fault that clears on retry.
	MaxPanics int
	// NaNEvery makes every Nth call return NaN (0 = never) — the degenerate
	// fit the elitist sort must survive.
	NaNEvery int
	// InfEvery makes every Nth call return +Inf (0 = never).
	InfEvery int
	// Delay stalls every call, for deadline tests.
	Delay time.Duration

	calls  atomic.Int64
	panics atomic.Int64
}

// Fitness implements genetic.Evaluator with faults injected per schedule.
// Panic beats NaN beats Inf when schedules coincide on a call.
func (e *Evaluator) Fitness(spec regress.Spec) float64 {
	n := e.calls.Add(1)
	if e.Delay > 0 {
		time.Sleep(e.Delay)
	}
	if e.PanicEvery > 0 && n%int64(e.PanicEvery) == 0 {
		for {
			p := e.panics.Load()
			if e.MaxPanics > 0 && p >= int64(e.MaxPanics) {
				break // budget exhausted: the fault has "cleared"
			}
			if e.panics.CompareAndSwap(p, p+1) {
				panic(fmt.Sprintf("faultinject: scheduled panic at call %d", n))
			}
		}
	}
	if e.NaNEvery > 0 && n%int64(e.NaNEvery) == 0 {
		return math.NaN()
	}
	if e.InfEvery > 0 && n%int64(e.InfEvery) == 0 {
		return math.Inf(1)
	}
	return e.Inner.Fitness(spec)
}

// Calls reports how many fitness evaluations were attempted.
func (e *Evaluator) Calls() int64 { return e.calls.Load() }

// Panics reports how many panics were injected.
func (e *Evaluator) Panics() int64 { return e.panics.Load() }

// PoisonRows writes a NaN into one seeded-random position of every Nth row
// (1-indexed: every=1 poisons all rows) and returns the number of rows
// poisoned. It models corrupt profile records arriving from a collector.
func PoisonRows(rows [][]float64, every int, seed uint64) int {
	if every <= 0 {
		return 0
	}
	src := rng.New(seed)
	poisoned := 0
	for i, row := range rows {
		if (i+1)%every != 0 || len(row) == 0 {
			continue
		}
		row[src.Intn(len(row))] = math.NaN()
		poisoned++
	}
	return poisoned
}

// CorruptMode selects how CorruptFile damages a file.
type CorruptMode int

const (
	// Truncate keeps only the first half of the file — a torn write.
	Truncate CorruptMode = iota
	// FlipByte inverts one seeded-random byte — silent bit rot.
	FlipByte
	// Garbage replaces the whole content with seeded-random bytes.
	Garbage
)

// CorruptFile damages path in place according to mode, deterministically in
// seed. The file must exist and be non-empty.
func CorruptFile(path string, seed uint64, mode CorruptMode) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("faultinject: %s is empty, nothing to corrupt", path)
	}
	src := rng.New(seed)
	switch mode {
	case Truncate:
		data = data[:len(data)/2]
	case FlipByte:
		data[src.Intn(len(data))] ^= 0xFF
	case Garbage:
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
	default:
		return fmt.Errorf("faultinject: unknown corrupt mode %d", mode)
	}
	return os.WriteFile(path, data, 0o644)
}
