package hwspace

import (
	"math"
	"testing"
	"testing/quick"

	"hsmodel/internal/rng"
)

func TestFromIndicesExtremes(t *testing.T) {
	lo := FromIndices(Indices{})
	if lo.Width != 1 || lo.LSQ != 11 || lo.PhysRegs != 86 || lo.IQ != 22 || lo.ROB != 64 {
		t.Errorf("minimal config wrong: %+v", lo)
	}
	if lo.L1Assoc != 1 || lo.L2Assoc != 2 || lo.MSHRs != 1 || lo.DCacheKB != 16 {
		t.Errorf("minimal config wrong: %+v", lo)
	}
	counts := LevelCounts()
	var hi Indices
	for p := range hi {
		hi[p] = counts[p] - 1
	}
	c := FromIndices(hi)
	if c.Width != 8 || c.ROB != 224 || c.PhysRegs != 296 || c.L2KB != 4096 ||
		c.L2Lat != 14 || c.IntALUs != 4 || c.FPALUs != 3 || c.Ports != 4 {
		t.Errorf("maximal config wrong: %+v", c)
	}
	if c.L1Assoc != 8 || c.L2Assoc != 8 || c.MSHRs != 8 {
		t.Errorf("maximal config wrong: %+v", c)
	}
}

func TestGroupedWindowScalesTogether(t *testing.T) {
	// Table 2's y2 row scales LSQ/regs/IQ/ROB in lock step.
	prev := FromIndices(Indices{})
	for lvl := 1; lvl < LevelCounts()[YWindow]; lvl++ {
		var ix Indices
		ix[YWindow] = lvl
		c := FromIndices(ix)
		if c.LSQ <= prev.LSQ || c.PhysRegs <= prev.PhysRegs || c.IQ <= prev.IQ || c.ROB <= prev.ROB {
			t.Fatalf("window level %d did not grow all resources: %+v", lvl, c)
		}
		prev = c
	}
}

func TestL2AssocTracksL1(t *testing.T) {
	for lvl := 0; lvl < LevelCounts()[YAssoc]; lvl++ {
		var ix Indices
		ix[YAssoc] = lvl
		c := FromIndices(ix)
		if c.L2Assoc < c.L1Assoc || c.L2Assoc < 2 || c.L2Assoc > 8 {
			t.Errorf("assoc pair L1=%d L2=%d out of Table 2 range", c.L1Assoc, c.L2Assoc)
		}
	}
}

func TestFromIndicesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	FromIndices(Indices{0, 99})
}

func TestSampleAlwaysValid(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		counts := LevelCounts()
		for k := 0; k < 20; k++ {
			ix := Sample(src)
			for p, i := range ix {
				if i < 0 || i >= counts[p] {
					return false
				}
			}
			_ = FromIndices(ix) // must not panic
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestVectorMapping(t *testing.T) {
	c := Baseline()
	v := c.Vector()
	if math.Float64bits(v[YWidth]) != math.Float64bits(float64(c.Width)) || math.Float64bits(v[YWindow]) != math.Float64bits(float64(c.LSQ)) ||
		math.Float64bits(v[YAssoc]) != math.Float64bits(float64(c.L1Assoc)) || math.Float64bits(v[YDCacheKB]) != math.Float64bits(float64(c.DCacheKB)) ||
		math.Float64bits(v[YPorts]) != math.Float64bits(float64(c.Ports)) {
		t.Errorf("vector %v does not encode %+v", v, c)
	}
}

func TestEnumerateFirstAndNames(t *testing.T) {
	for i, n := range Names {
		if n == "" {
			t.Errorf("parameter %d unnamed", i)
		}
	}
	if s := Baseline().String(); s == "" {
		t.Error("String() empty")
	}
}
