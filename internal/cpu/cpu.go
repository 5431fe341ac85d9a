// Package cpu implements the out-of-order processor timing model that plays
// gem5's role as the ground-truth performance substrate for the general
// hardware-software study.
//
// The model is a trace-driven interval simulator in the tradition of
// Eyerman/Eeckhout interval analysis: instructions are processed in program
// order in O(1) amortized time each, tracking
//
//   - front-end dispatch bandwidth (pipeline width y1) and i-cache stalls,
//   - the out-of-order window — dispatch stalls when the reorder buffer,
//     issue queue, physical registers, or load/store queue fill (y2),
//   - data-dependence wakeup through producer completion times,
//   - functional-unit and cache-port structural hazards (y9–y13),
//   - a two-level cache hierarchy with configurable geometry and latency
//     (y3–y8) simulated with true replacement state, with MSHRs bounding
//     memory-level parallelism (y4), and
//   - branch misprediction with a real 2-bit-counter predictor.
//
// Nothing in the model consumes the Table 1 characteristics directly — CPI
// emerges from simulating the instruction stream — so the regression task of
// the paper (inferring CPI from portable software characteristics and
// hardware parameters) remains a genuine inference problem.
package cpu

import (
	"hsmodel/internal/cache"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/isa"
)

// Fixed model constants (not part of the Table 2 design space).
const (
	l1Latency         = 1   // cycles, L1 hit
	memLatency        = 120 // cycles beyond L2 for a memory access
	mispredictPenalty = 8   // front-end refill after a branch mispredict
	prefetchDegree    = 2   // next-line prefetch on L1D demand misses
	storeLatency      = 1   // store-buffer absorb latency
	lineBytes         = 64
	predictorEntries  = 4096
)

// Execution latencies and occupancies by class. Multiplies/divides are
// modeled as partially pipelined (occupancy > 1).
var (
	execLatency   = [isa.NumClasses]float64{1, 8, 3, 6, 0, 0, 1}
	execOccupancy = [isa.NumClasses]float64{1, 4, 1, 2, 1, 1, 1}
)

// Result reports one simulation.
type Result struct {
	Insts       int
	Cycles      float64
	Branches    uint64
	Mispredicts uint64
	L1D, L1I    cache.Stats
	L2          cache.Stats
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return r.Cycles / float64(r.Insts)
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / r.Cycles
}

// ringSize must exceed every window resource (max ROB 224, max regs 296) and
// isa.MaxDepDistance.
const ringSize = 512

// Simulator carries reusable simulation state so repeated runs do not
// reallocate. A Simulator is not safe for concurrent use; create one per
// goroutine.
type Simulator struct {
	cfg  hwspace.Config
	hier cache.Hierarchy

	// completion[ringSize] is a sentinel that stays 0: a dependence with no
	// producer in the stream reads it.
	completion [ringSize + 1]float64 // completion time by instruction index
	issue      [ringSize]float64     // issue time by instruction index
	retire     [ringSize]float64     // retire time by instruction index
	memRetire  [ringSize]float64     // retire time by memory-op index

	fuFree   [isa.NumClasses][]float64
	portFree []float64
	mshrFree []float64

	predictor [predictorEntries]uint8
}

// New builds a simulator for one microarchitecture.
func New(cfg hwspace.Config) *Simulator {
	s := &Simulator{cfg: cfg}
	s.hier = cache.Hierarchy{
		L1I: cache.New(cache.Config{
			SizeBytes: cfg.ICacheKB * 1024, LineBytes: lineBytes, Ways: cfg.L1Assoc, Policy: cache.LRU,
		}),
		L1D: cache.New(cache.Config{
			SizeBytes: cfg.DCacheKB * 1024, LineBytes: lineBytes, Ways: cfg.L1Assoc, Policy: cache.LRU,
		}),
		L2: cache.New(cache.Config{
			SizeBytes: cfg.L2KB * 1024, LineBytes: lineBytes, Ways: cfg.L2Assoc, Policy: cache.LRU,
		}),
		L1Latency:      l1Latency,
		L2Latency:      cfg.L2Lat,
		MemLatency:     memLatency,
		PrefetchDegree: prefetchDegree,
	}
	pool := func(n int) []float64 { return make([]float64, n) }
	s.fuFree[isa.IntALU] = pool(cfg.IntALUs)
	s.fuFree[isa.IntMulDiv] = pool(cfg.IntMuls)
	s.fuFree[isa.FPALU] = pool(cfg.FPALUs)
	s.fuFree[isa.FPMulDiv] = pool(cfg.FPMuls)
	s.fuFree[isa.Branch] = s.fuFree[isa.IntALU] // branches resolve on int ALUs
	s.portFree = pool(cfg.Ports)
	s.mshrFree = pool(cfg.MSHRs)
	return s
}

// Config returns the simulated microarchitecture.
func (s *Simulator) Config() hwspace.Config { return s.cfg }

// Reset clears all timing and cache state for a fresh run.
func (s *Simulator) Reset() {
	s.hier.Reset()
	s.completion = [ringSize + 1]float64{}
	s.issue = [ringSize]float64{}
	s.retire = [ringSize]float64{}
	s.memRetire = [ringSize]float64{}
	zero := func(xs []float64) {
		for i := range xs {
			xs[i] = 0
		}
	}
	for c := range s.fuFree {
		zero(s.fuFree[c])
	}
	zero(s.portFree)
	zero(s.mshrFree)
	for i := range s.predictor {
		s.predictor[i] = 1 // weakly not-taken
	}
}

// Run simulates the stream's unread instructions and returns timing results.
func (s *Simulator) Run(ss *isa.SliceStream) Result {
	return s.run(ss.Rest())
}

// run simulates insts in program order from a reset state.
//
// The window and dependence checks take no warm-up branches. Before
// instruction ROB (PhysRegs, IQ; memory op LSQ for the LSQ) the ring slot a
// check reads has not been written in this run, so it holds the +0 that
// Reset stored, and every time is >= +0: the check cannot move t. A
// dependence with no producer in the stream (distance <= 0 or beyond the
// instructions so far) reads the sentinel completion[ringSize], also +0.
// No time is ever NaN or -0, so max(t, x) is bit for bit the t that
// `if x > t { t = x }` leaves.
func (s *Simulator) run(insts []isa.Inst) Result {
	s.Reset()
	var res Result
	cfg := &s.cfg
	dispatchStep := 1.0 / float64(cfg.Width)
	rob, regs, iq, lsq := int64(cfg.ROB), int64(cfg.PhysRegs), int64(cfg.IQ), int64(cfg.LSQ)

	var (
		i           int64   // instruction index
		memIdx      int64   // memory-op index
		frontTime   float64 // earliest next dispatch
		lastRetire  float64
		lastPCBlock uint64 = ^uint64(0)
	)

	for k := range insts {
		in := &insts[k]
		// --- Front end: i-cache ---
		pcBlock := in.PC / lineBytes
		if pcBlock != lastPCBlock {
			if pen := s.hier.InstAccess(in.PC); pen > 0 {
				frontTime += float64(pen)
			}
			lastPCBlock = pcBlock
		}

		// --- Dispatch: window resource stalls ---
		t := max(frontTime,
			s.retire[(i-rob)&(ringSize-1)],
			s.retire[(i-regs)&(ringSize-1)],
			// An IQ entry is held from dispatch to issue.
			s.issue[(i-iq)&(ringSize-1)])
		isMem := in.Class.IsMemory()
		if isMem {
			t = max(t, s.memRetire[(memIdx-lsq)&(ringSize-1)])
		}

		// --- Wakeup: data dependences ---
		ready := max(t, s.completion[depSlot(i, in.Dep1)], s.completion[depSlot(i, in.Dep2)])

		// --- Issue: structural hazards and execution ---
		var issueAt, complete float64
		if isMem {
			issueAt = s.acquire(s.portFree, ready, 1)
			lat, l1Miss := s.hier.DataAccess(in.Addr, in.Class == isa.Store)
			if l1Miss {
				// An MSHR must be free for the duration of the miss.
				issueAt = s.acquire(s.mshrFree, issueAt, float64(lat))
			}
			if in.Class == isa.Store {
				complete = issueAt + storeLatency
			} else {
				complete = issueAt + float64(lat)
			}
		} else {
			issueAt = s.acquire(s.fuFree[in.Class], ready, execOccupancy[in.Class])
			complete = issueAt + execLatency[in.Class]
		}

		// --- Commit: in-order retirement at commit width ---
		rt := max(complete, lastRetire+dispatchStep)
		lastRetire = rt

		slot := i & (ringSize - 1)
		s.completion[slot] = complete
		s.issue[slot] = issueAt
		s.retire[slot] = rt
		if isMem {
			s.memRetire[memIdx&(ringSize-1)] = rt
			memIdx++
		}

		// --- Control: branch prediction ---
		if in.Class == isa.Branch {
			res.Branches++
			if s.predict(in.BrID, in.Taken) {
				frontTime = t + dispatchStep
			} else {
				res.Mispredicts++
				// Front end restarts after the branch resolves.
				frontTime = complete + mispredictPenalty
			}
		} else {
			frontTime = t + dispatchStep
		}

		i++
	}

	res.Insts = int(i)
	res.Cycles = lastRetire
	res.L1D = s.hier.L1D.Stats()
	res.L1I = s.hier.L1I.Stats()
	res.L2 = s.hier.L2.Stats()
	return res
}

// depSlot returns the completion slot instruction i's dependence at
// distance dep reads: its producer's, or the sentinel ringSize when dep
// names no instruction of the stream (dep <= 0 or dep > i).
func depSlot(i int64, dep int32) int64 {
	if uint64(int64(dep)-1) >= uint64(i) {
		return ringSize
	}
	return (i - int64(dep)) & (ringSize - 1)
}

// acquire reserves the earliest-available unit in pool no earlier than
// ready, holding it for occupancy cycles, and returns the acquisition time.
func (s *Simulator) acquire(pool []float64, ready, occupancy float64) float64 {
	if len(pool) == 1 {
		at := max(ready, pool[0])
		pool[0] = at + occupancy
		return at
	}
	best := 0
	for u := 1; u < len(pool); u++ {
		if pool[u] < pool[best] {
			best = u
		}
	}
	at := max(ready, pool[best])
	pool[best] = at + occupancy
	return at
}

// predict consults and updates the 2-bit counter predictor, returning
// whether the prediction matched the outcome.
func (s *Simulator) predict(brID uint32, taken bool) bool {
	idx := brID % predictorEntries
	c := s.predictor[idx]
	predicted := c >= 2
	if taken && c < 3 {
		s.predictor[idx] = c + 1
	} else if !taken && c > 0 {
		s.predictor[idx] = c - 1
	}
	return predicted == taken
}
