package cpu

import (
	"math"
	"testing"

	"hsmodel/internal/hwspace"
	"hsmodel/internal/isa"
	"hsmodel/internal/trace"
)

// handTrace builds a repeated instruction pattern of the given length.
func handTrace(n int, pattern []isa.Inst) *isa.SliceStream {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = pattern[i%len(pattern)]
		insts[i].PC = uint64(i%16) * 4 // small hot loop: warm i-cache
	}
	return &isa.SliceStream{Insts: insts}
}

// shardStream returns app's shard trace as a SliceStream for Run.
func shardStream(app *trace.App, shard, shardLen int) *isa.SliceStream {
	return &isa.SliceStream{Insts: app.ShardTrace(shard, shardLen)}
}

func cfgWith(f func(*hwspace.Config)) hwspace.Config {
	c := hwspace.Baseline()
	f(&c)
	return c
}

func TestIndependentStreamApproachesWidth(t *testing.T) {
	// Independent single-cycle ALU ops: IPC should approach min(width, ALUs).
	stream := func() *isa.SliceStream {
		return handTrace(50_000, []isa.Inst{{Class: isa.IntALU}})
	}
	cfg := cfgWith(func(c *hwspace.Config) { c.Width = 4; c.IntALUs = 4 })
	r := New(cfg).Run(stream())
	if ipc := r.IPC(); ipc < 3.5 || ipc > 4.01 {
		t.Errorf("independent stream IPC = %v, want ~4", ipc)
	}
}

func TestSerialChainIsLatencyBound(t *testing.T) {
	// Every instruction depends on its predecessor: CPI ~= ALU latency (1).
	r := New(hwspace.Baseline()).Run(handTrace(50_000, []isa.Inst{
		{Class: isa.IntALU, Dep1: 1},
	}))
	if cpi := r.CPI(); cpi < 0.95 || cpi > 1.1 {
		t.Errorf("serial int chain CPI = %v, want ~1", cpi)
	}
	// A serial FP chain is bound by FP latency (3).
	r = New(hwspace.Baseline()).Run(handTrace(50_000, []isa.Inst{
		{Class: isa.FPALU, Dep1: 1},
	}))
	if cpi := r.CPI(); cpi < 2.8 || cpi > 3.2 {
		t.Errorf("serial FP chain CPI = %v, want ~3", cpi)
	}
}

func TestFUContention(t *testing.T) {
	// Independent FP ops: 1 FP ALU bounds throughput at 1/cycle; 3 FP ALUs
	// lift it toward width.
	mk := func(fpus int) float64 {
		cfg := cfgWith(func(c *hwspace.Config) { c.Width = 4; c.FPALUs = fpus })
		return New(cfg).Run(handTrace(40_000, []isa.Inst{{Class: isa.FPALU}})).IPC()
	}
	one, three := mk(1), mk(3)
	if one > 1.05 {
		t.Errorf("1 FP ALU IPC = %v, want <= ~1", one)
	}
	if three < 2*one {
		t.Errorf("3 FP ALUs IPC = %v, want >= 2x of %v", three, one)
	}
}

func TestWidthScalesILPRichCode(t *testing.T) {
	app := trace.Hmmer()
	run := func(width int) float64 {
		var ix hwspace.Indices
		ix = hwspace.Indices{0, 3, 1, 2, 1, 1, 2, 2, 3, 1, 2, 1, 3}
		cfg := hwspace.FromIndices(ix)
		cfg.Width = width
		return New(cfg).Run(shardStream(app, 0, 50_000)).CPI()
	}
	w1, w4 := run(1), run(4)
	if w4 >= w1 {
		t.Errorf("width 4 CPI %v should beat width 1 CPI %v", w4, w1)
	}
	if w1/w4 < 1.5 {
		t.Errorf("width speedup %v too small for ILP-rich code", w1/w4)
	}
}

func TestLoadMissLatencyVisible(t *testing.T) {
	// Serial dependent loads over a huge working set: CPI should approach
	// the memory round-trip. Use strided addresses defeating the prefetcher.
	insts := make([]isa.Inst, 20_000)
	for i := range insts {
		insts[i] = isa.Inst{Class: isa.Load, Dep1: 1, Addr: uint64(i) * 4096 * 3}
		insts[i].PC = uint64(i%16) * 4
	}
	cfg := hwspace.Baseline()
	r := New(cfg).Run(&isa.SliceStream{Insts: insts})
	// L1 latency 1 + L2 10 + memory 120 = 131ish per load, serialized.
	if cpi := r.CPI(); cpi < 100 {
		t.Errorf("dependent-miss chain CPI = %v, want memory-bound (>100)", cpi)
	}
	if r.L1D.MissRate() < 0.95 {
		t.Errorf("expected ~100%% miss rate, got %v", r.L1D.MissRate())
	}
}

func TestROBLimitsMemoryParallelism(t *testing.T) {
	// One missing load per 16 instructions: a 16-entry window holds only
	// one outstanding miss while a 224-entry window overlaps many (up to
	// the 8 MSHRs).
	insts := make([]isa.Inst, 40_000)
	for i := range insts {
		if i%16 == 0 {
			insts[i] = isa.Inst{Class: isa.Load, Addr: uint64(i) * 4096 * 5}
		} else {
			insts[i] = isa.Inst{Class: isa.IntALU}
		}
		insts[i].PC = uint64(i%16) * 4
	}
	run := func(window int) float64 {
		cfg := cfgWith(func(c *hwspace.Config) {
			c.MSHRs = 8
			c.ROB = window
			c.PhysRegs = window * 2
			c.IQ = window
			c.LSQ = window
		})
		return New(cfg).Run(&isa.SliceStream{Insts: insts}).CPI()
	}
	small, big := run(16), run(224)
	if big*1.5 >= small {
		t.Errorf("bigger window CPI %v should beat smaller %v on independent misses", big, small)
	}
}

func TestMSHRsBoundMissOverlap(t *testing.T) {
	insts := make([]isa.Inst, 30_000)
	for i := range insts {
		insts[i] = isa.Inst{Class: isa.Load, Addr: uint64(i) * 4096 * 5}
		insts[i].PC = uint64(i%16) * 4
	}
	run := func(mshrs int) float64 {
		cfg := cfgWith(func(c *hwspace.Config) { c.MSHRs = mshrs })
		return New(cfg).Run(&isa.SliceStream{Insts: insts}).CPI()
	}
	one, eight := run(1), run(8)
	if eight >= one {
		t.Errorf("8 MSHRs CPI %v should beat 1 MSHR CPI %v", eight, one)
	}
}

func TestBranchMispredictionCost(t *testing.T) {
	// Alternating taken/not-taken with distinct BrIDs but random-looking
	// pattern: a 2-bit counter mispredicts often. Compare against perfectly
	// biased branches.
	mkBranchy := func(pattern func(i int) bool) *isa.SliceStream {
		insts := make([]isa.Inst, 40_000)
		for i := range insts {
			if i%4 == 3 {
				insts[i] = isa.Inst{Class: isa.Branch, BrID: uint32(i % 64), Taken: pattern(i)}
			} else {
				insts[i] = isa.Inst{Class: isa.IntALU}
			}
			insts[i].PC = uint64(i%16) * 4
		}
		return &isa.SliceStream{Insts: insts}
	}
	cfg := hwspace.Baseline()
	predictable := New(cfg).Run(mkBranchy(func(i int) bool { return true }))
	// Branch IDs repeat with period 64 instructions, so alternating on
	// i/64 makes every static branch alternate taken/not-taken between
	// consecutive executions — the worst case for 2-bit counters.
	hostile := New(cfg).Run(mkBranchy(func(i int) bool { return (i/64)%2 == 0 }))
	if predictable.Mispredicts*10 > predictable.Branches {
		t.Errorf("biased branches mispredicted too often: %d/%d",
			predictable.Mispredicts, predictable.Branches)
	}
	if hostile.Mispredicts < hostile.Branches/2 {
		t.Errorf("hostile pattern mispredicted only %d/%d", hostile.Mispredicts, hostile.Branches)
	}
	if hostile.CPI() <= 1.5*predictable.CPI() {
		t.Errorf("hostile branch CPI %v should far exceed predictable %v",
			hostile.CPI(), predictable.CPI())
	}
}

func TestDeterminism(t *testing.T) {
	app := trace.Astar()
	cfg := hwspace.Baseline()
	a := New(cfg).Run(shardStream(app, 7, 30_000))
	b := New(cfg).Run(shardStream(app, 7, 30_000))
	if math.Float64bits(a.Cycles) != math.Float64bits(b.Cycles) || a.Mispredicts != b.Mispredicts {
		t.Error("simulation is not deterministic")
	}
}

func TestSimulatorReuse(t *testing.T) {
	// Run must fully reset state: two runs on one simulator equal two runs
	// on fresh simulators.
	app := trace.Bzip2()
	cfg := hwspace.Baseline()
	sim := New(cfg)
	first := sim.Run(shardStream(app, 0, 20_000))
	second := sim.Run(shardStream(app, 0, 20_000))
	if math.Float64bits(first.Cycles) != math.Float64bits(second.Cycles) {
		t.Error("simulator state leaked between runs")
	}
	if sim.Config() != cfg {
		t.Error("Config() mismatch")
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Insts: 100, Cycles: 50}
	if r.CPI() != 0.5 || r.IPC() != 2 {
		t.Errorf("CPI/IPC wrong: %v %v", r.CPI(), r.IPC())
	}
	var zero Result
	if zero.CPI() != 0 || zero.IPC() != 0 {
		t.Error("zero result should not divide by zero")
	}
}

func TestCacheSizeMatters(t *testing.T) {
	app := trace.Omnetpp() // 2 MB working set
	run := func(dkb, l2kb int) float64 {
		cfg := cfgWith(func(c *hwspace.Config) { c.DCacheKB = dkb; c.L2KB = l2kb })
		return New(cfg).Run(shardStream(app, 0, 60_000)).CPI()
	}
	smallCache := run(16, 256)
	bigCache := run(128, 4096)
	if bigCache >= smallCache {
		t.Errorf("bigger caches CPI %v should beat smaller %v on memory-bound code",
			bigCache, smallCache)
	}
}
