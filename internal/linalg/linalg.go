// Package linalg implements the dense linear algebra backing the regression
// engine: a row-major matrix type and Householder QR factorization with
// column pivoting, which both solves least-squares problems and exposes the
// numerical rank needed to detect and eliminate collinear model terms
// (Section 3.1 of the paper: "the modeling heuristic must also check for and
// eliminate collinear variables").
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVecInto computes m * x into the caller's buffer y (len Rows),
// allocation-free: one contiguous sweep over the row-major storage. Each
// row's dot product accumulates in ascending column order, so results are
// bit-identical to a scalar coefficient walk over the same row.
//
//hslint:hotpath
func (m *Matrix) MulVecInto(x, y []float64) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVecInto dimension mismatch %d vs %d", len(x), m.Cols))
	}
	if len(y) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVecInto output length %d, want %d", len(y), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// ErrRankDeficient is returned by solvers when the system has no unique
// solution even after pivoting.
var ErrRankDeficient = errors.New("linalg: rank deficient system")

// QR holds a Householder QR factorization with column pivoting:
// A * P = Q * R. The factorization is rank-revealing: diagonal entries of R
// are non-increasing in magnitude, so the numerical rank is the count of
// diagonals above tolerance.
type QR struct {
	qr   *Matrix   // packed Householder vectors below diagonal, R on/above
	tau  []float64 // Householder scalar factors
	piv  []int     // column permutation: column j of A*P is column piv[j] of A
	rank int
	rows int
	cols int
}

// rankTol is the relative tolerance for rank determination: a column whose
// remaining norm is at most rankTol times the largest initial column norm is
// numerically dependent on the columns already factored.
const rankTol = 1e-10

// Factor computes the pivoted QR factorization of a in place: the
// factorization overwrites a's elements and keeps a's storage, so a caller
// that reads a afterwards factors a.Clone() instead.
func Factor(a *Matrix) *QR {
	m, n := a.Rows, a.Cols
	f := &QR{qr: a, tau: make([]float64, n), piv: make([]int, n), rows: m, cols: n}
	for j := range f.piv {
		f.piv[j] = j
	}
	// Column norms for pivoting.
	norms := make([]float64, n)
	for j := 0; j < n; j++ {
		norms[j] = f.colNorm(0, j)
	}
	maxNorm := 0.0
	for _, v := range norms {
		if v > maxNorm {
			maxNorm = v
		}
	}
	thresh := rankTol * maxNorm
	kmax := m
	if n < m {
		kmax = n
	}
	for k := 0; k < kmax; k++ {
		// Pivot: bring the column with the largest remaining norm to k.
		best := k
		for j := k + 1; j < n; j++ {
			if norms[j] > norms[best] {
				best = j
			}
		}
		if best != k {
			f.swapCols(k, best)
			norms[k], norms[best] = norms[best], norms[k]
			f.piv[k], f.piv[best] = f.piv[best], f.piv[k]
		}
		if norms[k] <= thresh {
			break // remaining columns are numerically dependent
		}
		f.house(k)
		f.rank = k + 1
		// Update remaining column norms (recompute exactly: n is small in
		// regression design matrices, so the O(mn) recompute is cheap and
		// avoids the classical cancellation pitfall).
		for j := k + 1; j < n; j++ {
			norms[j] = f.colNorm(k+1, j)
		}
	}
	return f
}

func (f *QR) colNorm(fromRow, j int) float64 {
	var s float64
	for i := fromRow; i < f.rows; i++ {
		v := f.qr.At(i, j)
		s += v * v
	}
	return math.Sqrt(s)
}

func (f *QR) swapCols(a, b int) {
	for i := 0; i < f.rows; i++ {
		va, vb := f.qr.At(i, a), f.qr.At(i, b)
		f.qr.Set(i, a, vb)
		f.qr.Set(i, b, va)
	}
}

// house applies a Householder reflection eliminating column k below the
// diagonal, storing the reflector in place.
func (f *QR) house(k int) {
	m := f.rows
	// Compute the reflector for column k rows k..m-1.
	alpha := f.colNorm(k, k)
	if f.qr.At(k, k) > 0 {
		alpha = -alpha
	}
	if alpha == 0 {
		f.tau[k] = 0
		return
	}
	// v = x - alpha*e1, normalized so v[0] = 1.
	x0 := f.qr.At(k, k)
	v0 := x0 - alpha
	f.tau[k] = -v0 / alpha
	inv := 1 / v0
	for i := k + 1; i < m; i++ {
		f.qr.Set(i, k, f.qr.At(i, k)*inv)
	}
	f.qr.Set(k, k, alpha)
	// Apply reflection to the trailing columns: A = (I - tau v v^T) A.
	for j := k + 1; j < f.cols; j++ {
		s := f.qr.At(k, j)
		for i := k + 1; i < m; i++ {
			s += f.qr.At(i, k) * f.qr.At(i, j)
		}
		s *= f.tau[k]
		f.qr.Set(k, j, f.qr.At(k, j)-s)
		for i := k + 1; i < m; i++ {
			f.qr.Set(i, j, f.qr.At(i, j)-s*f.qr.At(i, k))
		}
	}
}

// Rank returns the numerical rank detected during factorization.
func (f *QR) Rank() int { return f.rank }

// applyQT overwrites b with Q^T b.
func (f *QR) applyQT(b []float64) {
	for k := 0; k < f.rank; k++ {
		if f.tau[k] == 0 {
			continue
		}
		s := b[k]
		for i := k + 1; i < f.rows; i++ {
			s += f.qr.At(i, k) * b[i]
		}
		s *= f.tau[k]
		b[k] -= s
		for i := k + 1; i < f.rows; i++ {
			b[i] -= s * f.qr.At(i, k)
		}
	}
}

// Solve returns the minimum-norm-ish least-squares solution to A x = b with
// the coefficients of numerically dependent columns (beyond the detected
// rank) set to exactly zero: the regression engine's automatic collinearity
// elimination. The returned slice has length Cols.
func (f *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != f.rows {
		return nil, fmt.Errorf("linalg: Solve rhs length %d, want %d", len(b), f.rows)
	}
	if f.rank == 0 {
		return nil, ErrRankDeficient
	}
	qtb := append([]float64(nil), b...)
	f.applyQT(qtb)
	// Back-substitute on the leading rank x rank block of R.
	y := make([]float64, f.rank)
	for i := f.rank - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < f.rank; j++ {
			s -= f.qr.At(i, j) * y[j]
		}
		d := f.qr.At(i, i)
		if d == 0 {
			return nil, ErrRankDeficient
		}
		y[i] = s / d
	}
	// Un-permute, zero-filling dropped columns.
	x := make([]float64, f.cols)
	for j := 0; j < f.rank; j++ {
		x[f.piv[j]] = y[j]
	}
	return x, nil
}
