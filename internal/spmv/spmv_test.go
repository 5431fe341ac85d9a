package spmv

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"hsmodel/internal/family/spline"
	"hsmodel/internal/genetic"
	"hsmodel/internal/rng"
)

// randomCSR builds a random sparse matrix for property tests.
func randomCSR(src *rng.Source, rows, cols, nnz int) *CSR {
	coo := &COO{Rows: rows, Cols: cols}
	for k := 0; k < nnz; k++ {
		coo.Add(src.Intn(rows), src.Intn(cols), src.Float64()*2-1)
	}
	return ToCSR(coo)
}

func TestToCSRSortsAndSumsDuplicates(t *testing.T) {
	coo := &COO{Rows: 2, Cols: 3}
	coo.Add(1, 2, 1.0)
	coo.Add(0, 1, 2.0)
	coo.Add(1, 2, 3.0) // duplicate: summed
	coo.Add(1, 0, 4.0)
	m := ToCSR(coo)
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3 (duplicates summed)", m.NNZ())
	}
	idx, vals := m.Row(1)
	if idx[0] != 0 || idx[1] != 2 {
		t.Errorf("row 1 columns %v not sorted", idx)
	}
	if vals[1] != 4.0 {
		t.Errorf("duplicate not summed: %v", vals)
	}
	if s := m.Sparsity(); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("sparsity %v", s)
	}
}

func TestCSRMulVec(t *testing.T) {
	// [[1 0 2],[0 3 0]] * [1 2 3] + [10 20] = [17 26].
	coo := &COO{Rows: 2, Cols: 3}
	coo.Add(0, 0, 1)
	coo.Add(0, 2, 2)
	coo.Add(1, 1, 3)
	m := ToCSR(coo)
	v := []float64{10, 20}
	m.MulVec([]float64{1, 2, 3}, v)
	if v[0] != 17 || v[1] != 26 {
		t.Fatalf("MulVec = %v", v)
	}
}

// TestFigure11Example asserts the exact BCSR layout of the paper's Figure
// 11: a 4x6 matrix with 2x2 blocks, b_row_start = (0 2 4), b_col_idx =
// (0 4 2 4), and four explicit filled zeros.
func TestFigure11Example(t *testing.T) {
	coo := &COO{Rows: 4, Cols: 6}
	// Row 0: a00 a01; Row 1: a10 a11 a14 a15; Row 2: a22 a24 a25;
	// Row 3: a33 a34 a35. Values encode position for identification.
	at := func(i, j int) float64 { return float64(10*i + j + 1) }
	for _, e := range [][2]int{
		{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 4}, {1, 5},
		{2, 2}, {2, 4}, {2, 5}, {3, 3}, {3, 4}, {3, 5},
	} {
		coo.Add(e[0], e[1], at(e[0], e[1]))
	}
	m := ToCSR(coo)
	b := ToBCSR(m, 2, 2)

	wantRowStart := []int{0, 2, 4}
	for i, v := range wantRowStart {
		if b.BRowStart[i] != v {
			t.Fatalf("b_row_start = %v, want %v", b.BRowStart, wantRowStart)
		}
	}
	wantColIdx := []int{0, 4, 2, 4}
	for i, v := range wantColIdx {
		if b.BColIdx[i] != v {
			t.Fatalf("b_col_idx = %v, want %v", b.BColIdx, wantColIdx)
		}
	}
	// b_value = (a00 a01 a10 a11  0 0 a14 a15  a22 0 0 a33  a24 a25 a34 a35)
	want := []float64{
		at(0, 0), at(0, 1), at(1, 0), at(1, 1),
		0, 0, at(1, 4), at(1, 5),
		at(2, 2), 0, 0, at(3, 3),
		at(2, 4), at(2, 5), at(3, 4), at(3, 5),
	}
	if len(b.Val) != len(want) {
		t.Fatalf("stored %d values, want %d", len(b.Val), len(want))
	}
	for i, v := range want {
		if math.Float64bits(b.Val[i]) != math.Float64bits(v) {
			t.Fatalf("b_value[%d] = %v, want %v (full: %v)", i, b.Val[i], v, b.Val)
		}
	}
	// Fill ratio: 16 stored / 12 non-zeros.
	if fr := b.FillRatio(); math.Abs(fr-16.0/12) > 1e-12 {
		t.Errorf("fill ratio %v, want 4/3", fr)
	}
}

// TestBCSREquivalenceProperty: for random matrices and every block size,
// BCSR multiply matches CSR multiply exactly.
func TestBCSREquivalenceProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		rows := 8 + src.Intn(40)
		cols := 8 + src.Intn(40)
		m := randomCSR(src, rows, cols, 2*(rows+cols))
		u := make([]float64, cols)
		for i := range u {
			u[i] = src.Float64()*2 - 1
		}
		ref := make([]float64, rows)
		m.MulVec(u, ref)

		r := 1 + src.Intn(MaxBlockDim)
		c := 1 + src.Intn(MaxBlockDim)
		b := ToBCSR(m, r, c)
		got := make([]float64, rows)
		b.MulVec(u, got)
		for i := range ref {
			if math.Abs(got[i]-ref[i]) > 1e-9 {
				return false
			}
		}
		return b.FillRatio() >= 1
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFillRatioOneForAlignedDenseBlocks(t *testing.T) {
	// A matrix made of aligned 3x3 dense blocks has fill 1.0 at 3x3 and
	// 1.0 at 1x1, but fill > 1 at 2x2.
	coo := &COO{Rows: 9, Cols: 9}
	for blk := 0; blk < 3; blk++ {
		for dr := 0; dr < 3; dr++ {
			for dc := 0; dc < 3; dc++ {
				coo.Add(blk*3+dr, blk*3+dc, 1)
			}
		}
	}
	m := ToCSR(coo)
	if fr := ToBCSR(m, 3, 3).FillRatio(); fr != 1 {
		t.Errorf("3x3 fill %v, want 1", fr)
	}
	if fr := ToBCSR(m, 1, 1).FillRatio(); fr != 1 {
		t.Errorf("1x1 fill %v, want 1", fr)
	}
	if fr := ToBCSR(m, 2, 2).FillRatio(); fr <= 1 {
		t.Errorf("2x2 fill %v, want > 1 (misaligned)", fr)
	}
}

func TestCorpusGeneratesToSpec(t *testing.T) {
	for _, spec := range Corpus() {
		scaled := spec.Scaled(32)
		m := scaled.Generate()
		if m.Rows > scaled.N || m.Rows < scaled.N-8*scaled.NBRow {
			t.Errorf("%s: dimension %d vs spec %d", spec.Name, m.Rows, scaled.N)
		}
		// NNZ within 40% of target (block rounding and dedupe shift it).
		ratio := float64(m.NNZ()) / float64(scaled.NNZ)
		if ratio < 0.6 || ratio > 1.4 {
			t.Errorf("%s: nnz %d vs target %d (ratio %.2f)", spec.Name, m.NNZ(), scaled.NNZ, ratio)
		}
	}
}

func TestCorpusDeterministic(t *testing.T) {
	spec, err := ByName("crystk02")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Scaled(32).Generate()
	b := spec.Scaled(32).Generate()
	if a.NNZ() != b.NNZ() {
		t.Fatal("matrix generation not deterministic")
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) || a.ColIdx[i] != b.ColIdx[i] {
			t.Fatal("matrix generation not deterministic")
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown matrix should error")
	}
}

func TestFEMSubstructure(t *testing.T) {
	// nasasrb (3-DOF FEM): fill at the natural block must be ~1, fill at a
	// misaligned size (5x5) must be much larger.
	spec, _ := ByName("nasasrb")
	s := NewStudy(spec.Scaled(32))
	nat := s.FillRatio(3, 3)
	mis := s.FillRatio(5, 5)
	if nat > 1.05 {
		t.Errorf("natural-block fill %v, want ~1", nat)
	}
	if mis < 1.5 {
		t.Errorf("misaligned fill %v, want heavy", mis)
	}
	// Circuit matrices have no substructure: even 2x2 costs real fill.
	spec2, _ := ByName("memplus")
	s2 := NewStudy(spec2.Scaled(16))
	if f := s2.FillRatio(2, 2); f < 1.5 {
		t.Errorf("circuit 2x2 fill %v, want heavy", f)
	}
}

func TestKernelTimingBasics(t *testing.T) {
	spec, _ := ByName("olafu")
	s := NewStudy(spec.Scaled(32))
	res := s.Simulate(1, 1, BaselineCache())
	if res.Cycles <= 0 || res.TrueFlops != 2*s.M.NNZ() {
		t.Fatalf("result %+v", res)
	}
	if res.ExecFlops < res.TrueFlops {
		t.Error("executed flops must include fill")
	}
	if res.MFlops() <= 0 || res.NJPerFlop() <= 0 || res.Watts() <= 0 {
		t.Error("derived metrics must be positive")
	}
	if res.Seconds() <= 0 {
		t.Error("time must be positive")
	}
}

func TestLargerLinesRaiseStreamingPerformance(t *testing.T) {
	// Figure 13's headline: larger cache lines amortize off-chip latency.
	spec, _ := ByName("pwtk")
	s := NewStudy(spec.Scaled(64))
	cfg := BaselineCache()
	var prev float64
	for _, line := range []int{16, 32, 64, 128} {
		cfg.LineBytes = line
		mf := s.Simulate(4, 4, cfg).MFlops()
		if mf <= prev {
			t.Fatalf("line %dB: %v MFlops not above previous %v", line, mf, prev)
		}
		prev = mf
	}
}

func TestEnergyTradeoffs(t *testing.T) {
	spec, _ := ByName("raefsky3")
	s := NewStudy(spec.Scaled(32))
	base := BaselineCache()
	// Blocking reduces energy per flop (less data movement).
	e11 := s.Simulate(1, 1, base).NJPerFlop()
	e84 := s.Simulate(8, 4, base).NJPerFlop()
	if e84 >= e11 {
		t.Errorf("blocking should cut energy: 1x1=%v 8x4=%v", e11, e84)
	}
	// Larger lines raise memory transfer energy per flop at 1x1 (unblocked
	// code wastes transferred bytes).
	big := base
	big.LineBytes = 128
	eBigLine := s.Simulate(1, 1, big).NJPerFlop()
	if eBigLine <= e11 {
		t.Errorf("larger lines should cost energy unblocked: %v vs %v", eBigLine, e11)
	}
}

func TestSamplePointsComplete(t *testing.T) {
	spec, _ := ByName("bayer02")
	s := NewStudy(spec.Scaled(8))
	pts := s.Sample(50, 3)
	if len(pts) != 50 {
		t.Fatalf("%d points", len(pts))
	}
	for _, pt := range pts {
		if pt.R < 1 || pt.R > 8 || pt.C < 1 || pt.C > 8 {
			t.Errorf("block size %dx%d out of range", pt.R, pt.C)
		}
		if pt.Fill < 1 || pt.MFlops <= 0 || pt.Watts <= 0 || pt.NJFlop <= 0 {
			t.Errorf("incomplete point %+v", pt)
		}
	}
	// Determinism.
	again := s.Sample(50, 3)
	for i := range pts {
		if pts[i] != again[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestDomainModelAccuracy(t *testing.T) {
	// The Figure 14 claim at reduced scale: median errors well under 10%
	// for both performance and power.
	spec, _ := ByName("venkat01")
	s := NewStudy(spec.Scaled(32))
	train := s.Sample(300, 7)
	valid := s.Sample(80, 1007)
	search := genetic.Params{PopulationSize: 20, Generations: 8, Seed: 5}
	perfModel, err := TrainDomainModel(context.Background(), "venkat01", train, PredictMFlops, search)
	if err != nil {
		t.Fatal(err)
	}
	powerModel, err := TrainDomainModel(context.Background(), "venkat01", train, PredictWatts, search)
	if err != nil {
		t.Fatal(err)
	}
	perf := EvaluateDomainModel(perfModel, valid)
	if perf.MedAPE > 0.10 {
		t.Errorf("performance medAPE %v, want < 10%%", perf.MedAPE)
	}
	if perf.Pearson < 0.9 {
		t.Errorf("performance correlation %v, want > 0.9", perf.Pearson)
	}
	pow := EvaluateDomainModel(powerModel, valid)
	if pow.MedAPE > 0.10 {
		t.Errorf("power medAPE %v, want < 10%%", pow.MedAPE)
	}
	// Prediction plumbing.
	pred := perfModel.Predict([]Point{{R: 4, C: 4, Fill: s.FillRatio(4, 4), Cfg: BaselineCache()}})
	if pred[0] <= 0 {
		t.Errorf("prediction %v", pred[0])
	}
}

func TestTuneOrdering(t *testing.T) {
	spec, _ := ByName("crystk02")
	s := NewStudy(spec.Scaled(32))
	res := Tune(TuneOptions{Study: s, CacheCandidates: 30, Seed: 2})
	if res.Baseline.MFlops <= 0 {
		t.Fatal("baseline not measured")
	}
	if res.AppSpeedup() < 1 || res.ArchSpeedup() < 1 {
		t.Errorf("tuning should not lose to baseline: app=%v arch=%v",
			res.AppSpeedup(), res.ArchSpeedup())
	}
	// Coordinated search covers both single-dimension searches' spaces.
	if res.CoordSpeedup() < res.AppSpeedup()-1e-9 {
		t.Errorf("coordinated %v below app-only %v", res.CoordSpeedup(), res.AppSpeedup())
	}
	if res.CoordSpeedup() < res.ArchSpeedup()-1e-9 {
		t.Errorf("coordinated %v below arch-only %v", res.CoordSpeedup(), res.ArchSpeedup())
	}
	// Figure 16(b): app tuning reduces energy per flop.
	if res.AppTuned.NJFlop >= res.Baseline.NJFlop {
		t.Errorf("app tuning should cut energy: %v -> %v",
			res.Baseline.NJFlop, res.AppTuned.NJFlop)
	}
}

func TestCacheConfigVectorAndString(t *testing.T) {
	cfg := BaselineCache()
	v := cfg.Vector()
	if math.Float64bits(v[0]) != math.Float64bits(float64(cfg.LineBytes)) || math.Float64bits(v[1]) != math.Float64bits(float64(cfg.DSizeBytes)) {
		t.Errorf("vector %v", v)
	}
	if cfg.String() == "" {
		t.Error("empty config string")
	}
}

// TestStudySampleGolden pins sampled points bit for bit, so changes to
// blocking or cache simulation that should be invisible stay invisible.
func TestStudySampleGolden(t *testing.T) {
	for _, tc := range []struct {
		matrix string
		scale  int
		want   string
	}{
		{"bayer02", 8, "571869d478f984037c2ea0ea9fcebcb529d6254d27580d66f32c71f8c9c6323f"},
		{"raefsky3", 32, "8b49967f3832d3c6a8dd63a128bed7d7d07465ef487831e66166d9cff7baf1ac"},
	} {
		spec, err := ByName(tc.matrix)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, pt := range NewStudy(spec.Scaled(tc.scale)).Sample(40, 5) {
			fmt.Fprintf(h, "%d|%d|%+v|", pt.R, pt.C, pt.Cfg)
			for _, f := range []float64{pt.Fill, pt.MFlops, pt.Watts, pt.NJFlop} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: points hash %s, want %s", tc.matrix, got, tc.want)
		}
	}
}

// TestTrainDomainModelGolden pins one domain-model search bit for bit: the
// final coefficients, the chosen spec, its fitness and the evaluation count.
func TestTrainDomainModelGolden(t *testing.T) {
	spec, err := ByName("bayer02")
	if err != nil {
		t.Fatal(err)
	}
	dm, err := TrainDomainModel(context.Background(), spec.Name, NewStudy(spec.Scaled(8)).Sample(120, 5), PredictMFlops, genetic.Params{PopulationSize: 12, Generations: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rm := dm.Model.(*spline.Model).RegressModel()
	h := sha256.New()
	var b [8]byte
	fmt.Fprintf(h, "%s|%d|", rm.Spec, dm.Searched)
	for _, f := range append([]float64{dm.Fitness}, rm.Coef...) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	const want = "9f2aa4d106d887ef3032ae3e3843095d2a3e8d5392e693a948c7535be63d4e01"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("domain model hash %s, want %s", got, want)
	}
}
