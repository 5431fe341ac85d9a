package trace

import (
	"math"
	"testing"

	"hsmodel/internal/isa"
	"hsmodel/internal/rng"
)

func TestShardStreamDeterminism(t *testing.T) {
	app := Astar()
	a := app.ShardTrace(3, 5000)
	b := app.ShardTrace(3, 5000)
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("shard lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs between identical shard streams", i)
		}
	}
}

func TestShardsDiffer(t *testing.T) {
	app := Bzip2()
	a := app.ShardTrace(0, 2000)
	b := app.ShardTrace(1, 2000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different shards produced identical streams")
	}
}

// classFractions counts per-class shares of a stream.
func classFractions(insts []isa.Inst) [isa.NumClasses]float64 {
	var counts [isa.NumClasses]float64
	for i := range insts {
		counts[insts[i].Class]++
	}
	for i := range counts {
		counts[i] /= float64(len(insts))
	}
	return counts
}

func TestMixMatchesPhaseWeights(t *testing.T) {
	app := Hmmer()
	insts := app.ShardTrace(0, 100_000)
	frac := classFractions(insts)
	ph := app.Segments[0].Phase

	// Branch share should be ~1/MeanBB.
	wantBranch := 1 / ph.MeanBB
	if math.Abs(frac[isa.Branch]-wantBranch)/wantBranch > 0.15 {
		t.Errorf("branch fraction %v, want ~%v", frac[isa.Branch], wantBranch)
	}
	// Non-branch classes should be proportional to mix weights.
	var mixTotal float64
	for _, w := range ph.Mix {
		mixTotal += w
	}
	nonBranch := 1 - frac[isa.Branch]
	for c := 0; c < 6; c++ {
		want := ph.Mix[c] / mixTotal * nonBranch
		if want < 0.02 {
			continue // tiny classes are noisy
		}
		if math.Abs(frac[c]-want)/want > 0.2 {
			t.Errorf("class %v fraction %v, want ~%v", isa.Class(c), frac[c], want)
		}
	}
}

func TestBasicBlockStructure(t *testing.T) {
	app := Sjeng()
	insts := app.ShardTrace(2, 50_000)
	// Every BlockEnd instruction must be a branch and vice versa.
	branches := 0
	for i := range insts {
		isBr := insts[i].Class == isa.Branch
		if isBr != insts[i].BlockEnd {
			t.Fatalf("inst %d: branch=%v blockEnd=%v", i, isBr, insts[i].BlockEnd)
		}
		if isBr {
			branches++
		}
	}
	meanBB := float64(len(insts)) / float64(branches)
	want := app.Segments[0].Phase.MeanBB
	if math.Abs(meanBB-want)/want > 0.2 {
		t.Errorf("mean basic block %v, want ~%v", meanBB, want)
	}
}

func TestDependenceDistancesValid(t *testing.T) {
	app := Omnetpp()
	insts := app.ShardTrace(1, 30_000)
	for i := range insts {
		for _, d := range []int32{insts[i].Dep1, insts[i].Dep2} {
			if d < 0 || d > isa.MaxDepDistance {
				t.Fatalf("inst %d: dep distance %d out of range", i, d)
			}
			if int(d) > i {
				t.Fatalf("inst %d: dep distance %d reaches before stream start", i, d)
			}
		}
	}
}

func TestMemoryAddressesOnlyOnMemoryOps(t *testing.T) {
	app := GemsFDTD()
	insts := app.ShardTrace(0, 20_000)
	memOps := 0
	for i := range insts {
		if insts[i].Class.IsMemory() {
			memOps++
		} else if insts[i].Addr != 0 {
			t.Fatalf("non-memory inst %d has address %x", i, insts[i].Addr)
		}
	}
	if memOps == 0 {
		t.Fatal("no memory operations generated")
	}
}

func TestPhaseAtAndTimeline(t *testing.T) {
	app := Bwaves()
	tl := app.TimelineLen()
	if tl != 10_000_000 {
		t.Fatalf("timeline length %d", tl)
	}
	p0, seg0 := app.PhaseAt(0)
	if p0.Name != "fp-stream" || seg0 != 0 {
		t.Fatalf("PhaseAt(0) = %s/%d", p0.Name, seg0)
	}
	p1, seg1 := app.PhaseAt(6_000_000)
	if p1.Name != "fp-solve" || seg1 != 1 {
		t.Fatalf("PhaseAt(6M) = %s/%d", p1.Name, seg1)
	}
	// Timeline wraps.
	pw, _ := app.PhaseAt(tl + 1)
	if pw.Name != "fp-stream" {
		t.Fatalf("PhaseAt wrap = %s", pw.Name)
	}
}

func TestSPEC2006RosterAndByName(t *testing.T) {
	apps := SPEC2006()
	if len(apps) != 7 {
		t.Fatalf("%d applications, want 7", len(apps))
	}
	want := []string{"astar", "bwaves", "bzip2", "gemsFDTD", "hmmer", "omnetpp", "sjeng"}
	for i, a := range apps {
		if a.Name != want[i] {
			t.Errorf("app %d = %s, want %s", i, a.Name, want[i])
		}
		if a.TimelineLen() == 0 {
			t.Errorf("%s has empty timeline", a.Name)
		}
	}
	if _, err := ByName("bwaves"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName should fail for unknown application")
	}
}

func TestVariantsChangeBehavior(t *testing.T) {
	base := Bzip2()
	o3 := WithOpt(base, OptO3)
	if o3.Name != "bzip2-O3" {
		t.Fatalf("variant name %s", o3.Name)
	}
	if o3.Seed == base.Seed {
		t.Error("variant must reseed")
	}
	// O3 lengthens dependence distances and basic blocks.
	baseDeps := meanDepDistance(base.ShardTrace(0, 40_000))
	o3Deps := meanDepDistance(o3.ShardTrace(0, 40_000))
	if o3Deps <= baseDeps {
		t.Errorf("O3 dep distance %v should exceed base %v", o3Deps, baseDeps)
	}
	o1 := WithOpt(base, OptO1)
	o1Deps := meanDepDistance(o1.ShardTrace(0, 40_000))
	if o1Deps >= baseDeps {
		t.Errorf("O1 dep distance %v should be below base %v", o1Deps, baseDeps)
	}
	// WithOpt(OptBase) is the identity.
	if WithOpt(base, OptBase) != base {
		t.Error("OptBase should return the app unchanged")
	}
}

// TestO3PredictabilityBuildsOnDerived: O3 adds its predictability bonus to
// the value the generator derives for a phase that leaves it to derivation,
// so every O3 phase predicts at least as well as the derivation's floor plus
// the bonus, and better than the same phase at the base level.
func TestO3PredictabilityBuildsOnDerived(t *testing.T) {
	generated := func(p Phase) float64 {
		return newGenerator(p, rng.New(1), 0).phase.Predictability
	}
	for _, app := range SPEC2006() {
		o3 := WithOpt(app, OptO3)
		for i, seg := range o3.Segments {
			got := generated(seg.Phase)
			if got < 0.81 || got > 1 {
				t.Errorf("%s phase %s: generator predictability %.4f, want in [0.81, 1]",
					o3.Name, seg.Phase.Name, got)
			}
			if base := generated(app.Segments[i].Phase); got <= base {
				t.Errorf("%s phase %s: predictability %.4f, not above the base level's %.4f",
					o3.Name, seg.Phase.Name, got, base)
			}
		}
	}
}

func meanDepDistance(insts []isa.Inst) float64 {
	var sum float64
	var n int
	for i := range insts {
		if insts[i].Dep1 > 0 {
			sum += float64(insts[i].Dep1)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestInputVariantsScaleWorkingSet(t *testing.T) {
	base := Omnetpp()
	v3 := WithInput(base, InputV3)
	if v3.Name != "omnetpp-v3" {
		t.Fatalf("variant name %s", v3.Name)
	}
	for i := range v3.Segments {
		if v3.Segments[i].Phase.WSBlocks <= base.Segments[i].Phase.WSBlocks {
			t.Errorf("segment %d: v3 working set should grow", i)
		}
	}
	v1 := WithInput(base, InputV1)
	for i := range v1.Segments {
		if v1.Segments[i].Phase.WSBlocks >= base.Segments[i].Phase.WSBlocks {
			t.Errorf("segment %d: v1 working set should shrink", i)
		}
	}
	if len(Variants(base)) != 5 {
		t.Error("Variants should return the five Section 4.4 variants")
	}
}

func TestBwavesIsFPOutlier(t *testing.T) {
	// The Figure 9 contrast: bwaves has far more FP and taken branches,
	// fewer int/memory ops, than sjeng.
	bw := classFractions(Bwaves().ShardTrace(0, 50_000))
	sj := classFractions(Sjeng().ShardTrace(0, 50_000))
	fpBW := bw[isa.FPALU] + bw[isa.FPMulDiv]
	fpSJ := sj[isa.FPALU] + sj[isa.FPMulDiv]
	if fpBW < 10*fpSJ {
		t.Errorf("bwaves FP share %v should dwarf sjeng's %v", fpBW, fpSJ)
	}
	memBW := bw[isa.Load] + bw[isa.Store]
	memSJ := sj[isa.Load] + sj[isa.Store]
	if memBW >= memSJ {
		t.Errorf("bwaves memory share %v should be below sjeng's %v", memBW, memSJ)
	}
}
