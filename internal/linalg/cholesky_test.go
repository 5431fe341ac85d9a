package linalg

import (
	"errors"
	"math"
	"testing"

	"hsmodel/internal/rng"
)

// gramOf returns AᵀA for a random well-conditioned tall matrix plus the
// matching right-hand side Aᵀb, so Cholesky solutions can be checked against
// the QR least-squares path.
func gramOf(t *testing.T, rows, cols int, seed uint64) (a *Matrix, g *Matrix, atb []float64, b []float64) {
	t.Helper()
	src := rng.New(seed)
	a = NewMatrix(rows, cols)
	for i := range a.Data {
		a.Data[i] = src.Float64()*2 - 1
	}
	b = make([]float64, rows)
	for i := range b {
		b[i] = src.Float64()*2 - 1
	}
	g = NewMatrix(cols, cols)
	atb = make([]float64, cols)
	for i := 0; i < cols; i++ {
		for j := 0; j < cols; j++ {
			var s float64
			for r := 0; r < rows; r++ {
				s += a.At(r, i) * a.At(r, j)
			}
			g.Set(i, j, s)
		}
		for r := 0; r < rows; r++ {
			atb[i] += a.At(r, i) * b[r]
		}
	}
	return a, g, atb, b
}

// TestCholeskyMatchesQR: the normal-equation solve must agree with pivoted-QR
// least squares on a well-conditioned system.
func TestCholeskyMatchesQR(t *testing.T) {
	a, g, atb, b := gramOf(t, 60, 7, 5)
	want, err := Factor(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	var c Cholesky
	if err := c.Factor(g); err != nil {
		t.Fatal(err)
	}
	got, err := c.Solve(atb)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if math.Abs(got[j]-want[j]) > 1e-10*(1+math.Abs(want[j])) {
			t.Errorf("coef[%d] = %.15g, qr %.15g", j, got[j], want[j])
		}
	}
}

func TestCholeskySolveInPlaceReusesFactor(t *testing.T) {
	_, g, atb, _ := gramOf(t, 40, 5, 9)
	var c Cholesky
	if err := c.Factor(g); err != nil {
		t.Fatal(err)
	}
	x1, err := c.Solve(atb)
	if err != nil {
		t.Fatal(err)
	}
	x2 := append([]float64(nil), atb...)
	if err := c.SolveInPlace(x2); err != nil {
		t.Fatal(err)
	}
	for j := range x1 {
		if math.Float64bits(x1[j]) != math.Float64bits(x2[j]) {
			t.Fatalf("Solve and SolveInPlace disagree at %d", j)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	g := NewMatrix(2, 2)
	g.Set(0, 0, 1)
	g.Set(0, 1, 2)
	g.Set(1, 0, 2)
	g.Set(1, 1, 1) // eigenvalues 3, -1
	var c Cholesky
	if err := c.Factor(g); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("indefinite matrix factored: err=%v", err)
	}
	if err := c.SolveInPlace([]float64{1, 2}); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("solve on failed factor: err=%v", err)
	}
}

func TestCholeskyConditionEstimateDiagonal(t *testing.T) {
	g := NewMatrix(3, 3)
	g.Set(0, 0, 100)
	g.Set(1, 1, 4)
	g.Set(2, 2, 1)
	var c Cholesky
	if err := c.Factor(g); err != nil {
		t.Fatal(err)
	}
	// Exact for diagonal matrices: (sqrt(100)/sqrt(1))² = 100.
	if got := c.ConditionEstimate(); math.Abs(got-100) > 1e-12 {
		t.Errorf("condition estimate = %g, want 100", got)
	}
}

// TestFactorPrunedDropsExactDependent: a duplicated column must be pruned,
// and the reduced solve must match QR's fit of the same system (QR drops the
// duplicate too; with identical columns the prediction-relevant coefficients
// coincide on whichever copy survives).
func TestFactorPrunedDropsExactDependent(t *testing.T) {
	const rows, cols = 50, 5
	a, _, _, b := gramOf(t, rows, cols, 21)
	// Append a copy of column 1: design a2 = [a | a[:,1]].
	a2 := NewMatrix(rows, cols+1)
	for r := 0; r < rows; r++ {
		copy(a2.Row(r)[:cols], a.Row(r))
		a2.Set(r, cols, a.At(r, 1))
	}
	g2 := NewMatrix(cols+1, cols+1)
	atb2 := make([]float64, cols+1)
	for i := 0; i <= cols; i++ {
		for j := 0; j <= cols; j++ {
			var s float64
			for r := 0; r < rows; r++ {
				s += a2.At(r, i) * a2.At(r, j)
			}
			g2.Set(i, j, s)
		}
		for r := 0; r < rows; r++ {
			atb2[i] += a2.At(r, i) * b[r]
		}
	}
	// Equilibrate so the absolute drop tolerance is meaningful.
	scale := make([]float64, cols+1)
	for j := range scale {
		scale[j] = 1 / math.Sqrt(g2.At(j, j))
	}
	for r := 0; r <= cols; r++ {
		for c := 0; c <= cols; c++ {
			g2.Set(r, c, g2.At(r, c)*scale[r]*scale[c])
		}
	}
	var c Cholesky
	kept, err := c.FactorPruned(g2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != cols {
		t.Fatalf("kept %v, want %d survivors", kept, cols)
	}
	for _, j := range kept {
		if j == cols {
			t.Fatalf("kept the duplicate column: %v", kept)
		}
	}
	u := make([]float64, len(kept))
	for i, j := range kept {
		u[i] = atb2[j] * scale[j]
	}
	if err := c.SolveInPlace(u); err != nil {
		t.Fatal(err)
	}
	want, err := Factor(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	// Reduced system == original 5-column system, except coefficient 1 of the
	// QR fit is split across the duplicates there; here the kept copy carries
	// it alone.
	for i, j := range kept {
		got := u[i] * scale[j]
		if math.Abs(got-want[j]) > 1e-9*(1+math.Abs(want[j])) {
			t.Errorf("coef[%d] = %.12g, want %.12g", j, got, want[j])
		}
	}
}

func TestFactorPrunedNoOpOnCleanSystem(t *testing.T) {
	_, g, atb, _ := gramOf(t, 60, 6, 33)
	ref := g.Clone()
	var c1, c2 Cholesky
	kept, err := c1.FactorPruned(g, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 6 {
		t.Fatalf("pruned a full-rank system: kept %v", kept)
	}
	if err := c2.Factor(ref); err != nil {
		t.Fatal(err)
	}
	x1, err := c1.Solve(atb)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := c2.Solve(atb)
	if err != nil {
		t.Fatal(err)
	}
	for j := range x1 {
		if math.Float64bits(x1[j]) != math.Float64bits(x2[j]) {
			t.Fatalf("FactorPruned diverged from Factor at %d: %g vs %g", j, x1[j], x2[j])
		}
	}
}

func TestFactorPrunedAllZero(t *testing.T) {
	g := NewMatrix(3, 3) // zero matrix: every pivot ≤ dropTol
	var c Cholesky
	if _, err := c.FactorPruned(g, 1e-12); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("all-pruned matrix returned err=%v", err)
	}
}

func TestFactorPrunedNaN(t *testing.T) {
	g := NewMatrix(2, 2)
	g.Set(0, 0, math.NaN())
	g.Set(1, 1, 1)
	var c Cholesky
	if _, err := c.FactorPruned(g, 1e-12); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("NaN pivot returned err=%v", err)
	}
}
