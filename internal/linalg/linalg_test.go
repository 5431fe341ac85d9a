package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"hsmodel/internal/rng"
)

// mulVec returns m * x.
func mulVec(m *Matrix, x []float64) []float64 {
	y := make([]float64, m.Rows)
	m.MulVecInto(x, y)
	return y
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must alias storage")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := mulVec(m, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVecInto = %v", y)
	}
}

func TestSolveExactSquareSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1  =>  x = 2, y = 1.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, -1)
	f := Factor(a)
	x, err := f.Solve([]float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Rank() != 2 {
		t.Fatalf("rank = %d", f.Rank())
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestLeastSquaresRecoversCoefficients(t *testing.T) {
	// Overdetermined noiseless system must recover exact coefficients.
	src := rng.New(31)
	n, p := 100, 4
	truth := []float64{3, -2, 0.5, 7}
	a := NewMatrix(n, p)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			a.Set(i, j, src.Float64()*10-5)
		}
		for j := 0; j < p; j++ {
			b[i] += truth[j] * a.At(i, j)
		}
	}
	f := Factor(a)
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rank() != p {
		t.Fatalf("rank = %d, want %d", f.Rank(), p)
	}
	for j := range truth {
		if math.Abs(x[j]-truth[j]) > 1e-9 {
			t.Fatalf("coef %d = %v, want %v", j, x[j], truth[j])
		}
	}
}

func TestRankDetectionDropsDuplicateColumn(t *testing.T) {
	// Column 2 duplicates column 0: rank 2, one duplicate's coefficient is
	// exactly 0, and the fit still reproduces b.
	src := rng.New(32)
	n := 50
	a := NewMatrix(n, 3)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		v0 := src.Float64()
		v1 := src.Float64()
		a.Set(i, 0, v0)
		a.Set(i, 1, v1)
		a.Set(i, 2, v0) // exact duplicate
		b[i] = 2*v0 + 3*v1
	}
	f := Factor(a.Clone())
	if f.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", f.Rank())
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one of the duplicates is eliminated with a zero coefficient;
	// the independent column never is.
	if (x[0] == 0) == (x[2] == 0) || x[1] == 0 {
		t.Fatalf("coefficients %v: want exactly one duplicate zeroed", x)
	}
	// Predictions must still be exact even with a dropped column.
	pred := mulVec(a, x)
	for i := range b {
		if math.Abs(pred[i]-b[i]) > 1e-9 {
			t.Fatalf("prediction %d = %v, want %v", i, pred[i], b[i])
		}
	}

	// Nearly (but not exactly) dependent columns: col1 = col0 + tiny noise
	// in an independent direction. Noise above the rank tolerance keeps both
	// columns.
	bad := NewMatrix(3, 2)
	noise := []float64{1e-9, -2e-9, 1.5e-9}
	for i := 0; i < 3; i++ {
		v := float64(i + 1)
		bad.Set(i, 0, v)
		bad.Set(i, 1, v+noise[i])
	}
	if r := Factor(bad).Rank(); r != 2 {
		t.Fatalf("near-duplicate rank = %d, want 2", r)
	}
	// With dependence below the rank tolerance, the column is dropped —
	// exactly the collinearity elimination the modeling heuristic needs.
	verybad := NewMatrix(3, 2)
	for i := 0; i < 3; i++ {
		v := float64(i + 1)
		verybad.Set(i, 0, v)
		verybad.Set(i, 1, v+noise[i]*1e-3)
	}
	if Factor(verybad).Rank() != 1 {
		t.Error("the rank tolerance should drop the nearly dependent column")
	}
}

func TestSolveResidualOrthogonality(t *testing.T) {
	// Least-squares residual must be orthogonal to the column space.
	src := rng.New(33)
	n, p := 60, 3
	a := NewMatrix(n, p)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			a.Set(i, j, src.Normal(0, 1))
		}
		b[i] = src.Normal(0, 1)
	}
	x, err := Factor(a.Clone()).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	pred := mulVec(a, x)
	for j := 0; j < p; j++ {
		var dot float64
		for i := 0; i < n; i++ {
			dot += (b[i] - pred[i]) * a.At(i, j)
		}
		if math.Abs(dot) > 1e-8 {
			t.Fatalf("residual not orthogonal to column %d: %v", j, dot)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	a := NewMatrix(2, 2)
	f := Factor(a) // all-zero matrix: rank 0
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Error("rank-0 solve should fail")
	}
	a2 := NewMatrix(2, 1)
	a2.Set(0, 0, 1)
	a2.Set(1, 0, 1)
	if _, err := Factor(a2).Solve([]float64{1}); err == nil {
		t.Error("wrong rhs length should fail")
	}
}

func TestLeastSquaresRecoveryProperty(t *testing.T) {
	// For random well-conditioned systems with exact solutions, recovery is
	// exact to numerical precision.
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		n := 30 + src.Intn(30)
		p := 2 + src.Intn(5)
		truth := make([]float64, p)
		for j := range truth {
			truth[j] = src.Float64()*4 - 2
		}
		a := NewMatrix(n, p)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				a.Set(i, j, src.Normal(0, 1))
				b[i] += truth[j] * a.At(i, j)
			}
		}
		x, err := Factor(a).Solve(b)
		if err != nil {
			return false
		}
		for j := range truth {
			if math.Abs(x[j]-truth[j]) > 1e-7 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
