package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned by Cholesky.Factor when the matrix is not
// numerically symmetric positive definite — including the rank-deficient
// case, where a pivot collapses to zero or below.
var ErrNotSPD = errors.New("linalg: matrix not positive definite")

// Cholesky holds the factorization A = L·Lᵀ of a symmetric positive
// definite matrix. Unlike the pivoted QR in this package it is O(n³/3) on
// the (small) matrix order rather than O(rows·cols²) on the observation
// count, which is what makes normal-equation solves cheap for the Gram-cache
// fit path: the data pass is paid once building the Gram matrix, and every
// candidate solve touches only p×p numbers.
//
// A Cholesky value is reusable: Factor overwrites the receiver, so hot paths
// can keep one per worker and avoid per-solve allocation.
type Cholesky struct {
	n          int
	l          *Matrix // lower triangle holds L; entries above the diagonal are stale
	dmin, dmax float64 // extreme diagonal entries of L, for the condition estimate
}

// Factor computes the Cholesky factorization of a, overwriting a's lower
// triangle with L and retaining a as the factor's storage (no copy is
// taken). Only the lower triangle of a is read, so callers need not fill the
// upper half. A non-positive (or non-finite) pivot aborts with ErrNotSPD and
// leaves the factor unusable.
func (c *Cholesky) Factor(a *Matrix) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("linalg: Cholesky of %dx%d matrix", a.Rows, a.Cols))
	}
	n := a.Rows
	c.n = n
	c.l = a
	c.dmin, c.dmax = math.Inf(1), 0
	data := a.Data
	for j := 0; j < n; j++ {
		rowJ := data[j*n : (j+1)*n]
		d := rowJ[j]
		for k := 0; k < j; k++ {
			d -= rowJ[k] * rowJ[k]
		}
		if math.IsNaN(d) || d <= 0 {
			c.l = nil
			return fmt.Errorf("%w: pivot %d is %g", ErrNotSPD, j, d)
		}
		dj := math.Sqrt(d)
		rowJ[j] = dj
		if dj < c.dmin {
			c.dmin = dj
		}
		if dj > c.dmax {
			c.dmax = dj
		}
		inv := 1 / dj
		for i := j + 1; i < n; i++ {
			rowI := data[i*n : (i+1)*n]
			s := rowI[j]
			for k := 0; k < j; k++ {
				s -= rowI[k] * rowJ[k]
			}
			rowI[j] = s * inv
		}
	}
	return nil
}

// FactorPruned computes a pruning Cholesky factorization of a: a column whose
// remaining pivot falls to dropTol or below — a numerically exact linear
// dependent of the preceding kept columns, or an all-zero column — is skipped
// instead of aborting the factorization, mirroring how pivoted QR drops
// zero-norm columns. It returns the kept column indices, increasing; the
// factor then describes the kept principal submatrix, and SolveInPlace
// expects vectors of that reduced length.
//
// dropTol is absolute, so callers should equilibrate a to a unit diagonal
// first; a few hundred ULPs (~1e-12) then separates exact dependents from
// directions the condition guard must judge. Like Factor, FactorPruned
// consumes a's storage. A NaN pivot aborts with ErrNotSPD.
func (c *Cholesky) FactorPruned(a *Matrix, dropTol float64) ([]int, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("linalg: Cholesky of %dx%d matrix", a.Rows, a.Cols))
	}
	n := a.Rows
	c.dmin, c.dmax = math.Inf(1), 0
	data := a.Data
	kept := make([]int, 0, n)
	// The compacted factor grows in the same storage: L entries land at column
	// q = len(kept) ≤ j, strictly left of every unread original entry (column
	// indices ≥ j), so the two never collide.
	for j := 0; j < n; j++ {
		q := len(kept)
		rowJ := data[j*n : (j+1)*n]
		d := rowJ[j]
		for k := 0; k < q; k++ {
			d -= rowJ[k] * rowJ[k]
		}
		if math.IsNaN(d) {
			c.l = nil
			return nil, fmt.Errorf("%w: pivot %d is NaN", ErrNotSPD, j)
		}
		if d <= dropTol {
			continue // dependent on the kept columns at working precision
		}
		dj := math.Sqrt(d)
		rowJ[q] = dj
		if dj < c.dmin {
			c.dmin = dj
		}
		if dj > c.dmax {
			c.dmax = dj
		}
		inv := 1 / dj
		for i := j + 1; i < n; i++ {
			rowI := data[i*n : (i+1)*n]
			s := rowI[j]
			for k := 0; k < q; k++ {
				s -= rowI[k] * rowJ[k]
			}
			rowI[q] = s * inv
		}
		kept = append(kept, j)
	}
	q := len(kept)
	if q == 0 {
		c.l = nil
		return nil, fmt.Errorf("%w: all %d columns pruned", ErrNotSPD, n)
	}
	// Re-pack the kept rows contiguously at stride q. Destinations never reach
	// a later source row (rc·q+rc+1 ≤ (r+1)·n), and copy tolerates the
	// same-row overlap when only the stride shrinks.
	for rc, r := range kept {
		copy(data[rc*q:rc*q+rc+1], data[r*n:r*n+rc+1])
	}
	c.n = q
	c.l = &Matrix{Rows: q, Cols: q, Data: data[:q*q]}
	return kept, nil
}

// ConditionEstimate returns (max diag L / min diag L)², a cheap lower bound
// on the 2-norm condition number of the factored matrix. It is exact for
// diagonal matrices and a usable guard for equilibrated Gram matrices, whose
// off-diagonal mass is bounded by the unit diagonal.
func (c *Cholesky) ConditionEstimate() float64 {
	if c.l == nil || c.n == 0 || c.dmin == 0 {
		return math.Inf(1)
	}
	r := c.dmax / c.dmin
	return r * r
}

// eigenIters is SmallestEigenEstimate's iteration count: plenty for a
// condition guard, which needs the order of magnitude of λmin.
const eigenIters = 4

// SmallestEigenEstimate estimates the smallest eigenvalue of the factored
// matrix by eigenIters steps of inverse power iteration, reusing the factor
// for the inner solves (O(n²) each). The start vector is deterministic, so
// repeated calls agree bit-for-bit. scratch must have length ≥ n (it is
// overwritten).
//
// Together with a norm bound on the original matrix this yields a much
// tighter condition estimate than the diagonal ratio, which only lower-bounds
// the true condition number and can undershoot by orders of magnitude.
func (c *Cholesky) SmallestEigenEstimate(scratch []float64) float64 {
	if c.l == nil || c.n == 0 {
		return 0
	}
	n := c.n
	v := scratch[:n]
	for i := range v {
		if i%2 == 0 {
			v[i] = 1
		} else {
			v[i] = -1
		}
	}
	lambda := 0.0
	for k := 0; k < eigenIters; k++ {
		// Normalize, then invert: ||A⁻¹ v|| → 1/λmin as v aligns with the
		// smallest eigenvector.
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
			return 0
		}
		inv := 1 / norm
		for i := range v {
			v[i] *= inv
		}
		if err := c.SolveInPlace(v); err != nil {
			return 0
		}
		var ynorm float64
		for _, x := range v {
			ynorm += x * x
		}
		ynorm = math.Sqrt(ynorm)
		if ynorm == 0 || math.IsNaN(ynorm) || math.IsInf(ynorm, 0) {
			return 0
		}
		lambda = 1 / ynorm
	}
	return lambda
}

// SolveInPlace overwrites b with the solution of A·x = b via forward and
// backward substitution. It allocates nothing.
func (c *Cholesky) SolveInPlace(b []float64) error {
	if c.l == nil {
		return ErrNotSPD
	}
	if len(b) != c.n {
		return fmt.Errorf("linalg: Cholesky rhs length %d, want %d", len(b), c.n)
	}
	n := c.n
	data := c.l.Data
	// L·y = b.
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * b[k]
		}
		b[i] = s / row[i]
	}
	// Lᵀ·x = y. L is stored row-major, so Lᵀ[i][k] = L[k][i].
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= data[k*n+i] * b[k]
		}
		b[i] = s / data[i*n+i]
	}
	return nil
}

// Solve returns the solution of A·x = b, leaving b untouched.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	x := append([]float64(nil), b...)
	if err := c.SolveInPlace(x); err != nil {
		return nil, err
	}
	return x, nil
}
