package profile

import (
	"math"
	"testing"

	"hsmodel/internal/isa"
	"hsmodel/internal/trace"
)

// mkStream wraps an instruction slice in a SliceStream for Stream.
func mkStream(insts []isa.Inst) *isa.SliceStream {
	return &isa.SliceStream{Insts: insts}
}

func TestInstructionMixCounts(t *testing.T) {
	// 10 instructions: 4 IntALU, 2 Load, 1 Store, 1 FPALU, 2 Branch (1 taken).
	insts := []isa.Inst{
		{Class: isa.IntALU}, {Class: isa.IntALU}, {Class: isa.Load, Addr: 0},
		{Class: isa.FPALU}, {Class: isa.Branch, Taken: true},
		{Class: isa.IntALU}, {Class: isa.Store, Addr: 128}, {Class: isa.Load, Addr: 256},
		{Class: isa.IntALU}, {Class: isa.Branch, Taken: false},
	}
	p := Stream(mkStream(insts), "hand", 0)
	if p.Insts != 10 {
		t.Fatalf("insts %d", p.Insts)
	}
	// Counts are per kilo-instruction.
	checks := map[int]float64{
		XControl:       200, // 2 branches / 10 insts
		XTakenBranches: 100,
		XFPALU:         100,
		XIntALU:        400,
		XMemory:        300,
		XFPMulDiv:      0,
		XIntMulDiv:     0,
	}
	for idx, want := range checks {
		if math.Float64bits(p.X[idx]) != math.Float64bits(want) {
			t.Errorf("%s = %v, want %v", Names[idx], p.X[idx], want)
		}
	}
	// Basic block size: 10 insts / 2 control.
	if p.X[XBasicBlock] != 5 {
		t.Errorf("x13 = %v, want 5", p.X[XBasicBlock])
	}
}

func TestDataReuseDistanceExact(t *testing.T) {
	// Accesses to the same 64B block at instruction indices 0, 3, 5:
	// distances 3 and 2, mean 2.5. A different block at index 1 contributes
	// no pair.
	insts := []isa.Inst{
		{Class: isa.Load, Addr: 0},    // block 0 @ 0
		{Class: isa.Load, Addr: 4096}, // block 64 @ 1
		{Class: isa.IntALU},           //
		{Class: isa.Load, Addr: 8},    // block 0 @ 3 -> distance 3
		{Class: isa.IntALU},           //
		{Class: isa.Store, Addr: 63},  // block 0 @ 5 -> distance 2
	}
	p := Stream(mkStream(insts), "hand", 0)
	if got := p.X[XDReuse]; math.Abs(got-2.5) > 1e-12 {
		t.Errorf("x8 = %v, want 2.5", got)
	}
}

func TestInstReuseDistance(t *testing.T) {
	// PC blocks: 0,0,1,0 -> block 0 re-used at distance... indices 0,1,3:
	// pairs (0,1)=1 and (1,3)=2; block 1 no pair. Mean = 1.5.
	insts := []isa.Inst{
		{Class: isa.IntALU, PC: 0},
		{Class: isa.IntALU, PC: 32},
		{Class: isa.IntALU, PC: 64},
		{Class: isa.IntALU, PC: 4},
	}
	p := Stream(mkStream(insts), "hand", 0)
	if got := p.X[XIReuse]; math.Abs(got-1.5) > 1e-12 {
		t.Errorf("x9 = %v, want 1.5", got)
	}
}

func TestSumReuse256(t *testing.T) {
	// 256B blocks: addresses 0 and 192 share block 0; 300 is block 1.
	// Accesses: block0@0, block1@1, block0@2 -> sum of distances = 2.
	insts := []isa.Inst{
		{Class: isa.Load, Addr: 0},
		{Class: isa.Load, Addr: 300},
		{Class: isa.Load, Addr: 192},
	}
	p := Stream(mkStream(insts), "hand", 0)
	if p.SumReuse256 != 2 {
		t.Errorf("sumReuse256 = %v, want 2", p.SumReuse256)
	}
}

func TestProducerConsumerAttribution(t *testing.T) {
	// Producer classes: FPALU at 0, FPMulDiv at 1, IntMulDiv at 2.
	// Consumer at 5 depends on dist 5 (FPALU) and dist 4 (FPMulDiv);
	// consumer at 6 depends on dist 4 (IntMulDiv).
	insts := []isa.Inst{
		{Class: isa.FPALU},
		{Class: isa.FPMulDiv},
		{Class: isa.IntMulDiv},
		{Class: isa.IntALU},
		{Class: isa.IntALU},
		{Class: isa.FPALU, Dep1: 5, Dep2: 4},
		{Class: isa.IntALU, Dep1: 4},
	}
	p := Stream(mkStream(insts), "hand", 0)
	if p.X[XFPALUDist] != 5 {
		t.Errorf("x10 = %v, want 5", p.X[XFPALUDist])
	}
	if p.X[XFPMulDist] != 4 {
		t.Errorf("x11 = %v, want 4", p.X[XFPMulDist])
	}
	if p.X[XIntMulDist] != 4 {
		t.Errorf("x12 = %v, want 4", p.X[XIntMulDist])
	}
}

func TestDepBeyondStreamStartIgnored(t *testing.T) {
	insts := []isa.Inst{
		{Class: isa.IntALU, Dep1: 5}, // reaches before index 0: ignored
		{Class: isa.IntALU, Dep1: 1},
	}
	p := Stream(mkStream(insts), "hand", 0)
	// Only the second dep (producer class IntALU) is recorded; x10-x12
	// cover FP/IntMul producers, so all must be zero.
	if p.X[XFPALUDist] != 0 || p.X[XFPMulDist] != 0 || p.X[XIntMulDist] != 0 {
		t.Error("out-of-range dependence contaminated ILP characteristics")
	}
}

func TestEmptyProfile(t *testing.T) {
	p := Stream(mkStream(nil), "empty", 3)
	if p.App != "empty" || p.Shard != 3 || p.Insts != 0 {
		t.Errorf("empty profile %+v", p)
	}
	for i, v := range p.X {
		if v != 0 {
			t.Errorf("%s = %v on empty stream", Names[i], v)
		}
	}
}

func TestMeanCharacteristics(t *testing.T) {
	a := ShardProfile{X: Characteristics{2, 4}}
	b := ShardProfile{X: Characteristics{4, 8}}
	m := MeanCharacteristics([]ShardProfile{a, b})
	if m[0] != 3 || m[1] != 6 {
		t.Errorf("mean = %v", m)
	}
	if MeanCharacteristics(nil) != (Characteristics{}) {
		t.Error("empty mean should be zero")
	}
}

func TestProfileIsMicroarchIndependentAndDeterministic(t *testing.T) {
	// Profiling the same shard twice gives identical characteristics: the
	// profile depends only on the instruction stream.
	app := trace.Hmmer()
	p1 := Stream(mkStream(app.ShardTrace(4, 20_000)), app.Name, 4)
	p2 := Stream(mkStream(app.ShardTrace(4, 20_000)), app.Name, 4)
	if p1.X != p2.X || math.Float64bits(p1.SumReuse256) != math.Float64bits(p2.SumReuse256) {
		t.Error("profiles of identical shards differ")
	}
}

func TestGeneratedWorkloadCharacteristicsSane(t *testing.T) {
	for _, app := range trace.SPEC2006() {
		p := Stream(mkStream(app.ShardTrace(0, 30_000)), app.Name, 0)
		var mixSum float64
		for _, idx := range []int{XControl, XFPALU, XFPMulDiv, XIntMulDiv, XIntALU, XMemory} {
			if p.X[idx] < 0 {
				t.Errorf("%s: negative %s", app.Name, Names[idx])
			}
			mixSum += p.X[idx]
		}
		// Mix counts cover every instruction: 1000 per kilo-instruction.
		if math.Abs(mixSum-1000) > 1e-9 {
			t.Errorf("%s: mix sums to %v, want 1000", app.Name, mixSum)
		}
		if p.X[XTakenBranches] > p.X[XControl] {
			t.Errorf("%s: taken branches exceed control ops", app.Name)
		}
		if p.X[XDReuse] <= 0 || p.X[XIReuse] <= 0 {
			t.Errorf("%s: re-use distances must be positive", app.Name)
		}
		if p.X[XBasicBlock] < 2 || p.X[XBasicBlock] > 32 {
			t.Errorf("%s: basic block size %v implausible", app.Name, p.X[XBasicBlock])
		}
	}
}
