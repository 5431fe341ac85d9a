package regress

import (
	"fmt"

	"hsmodel/internal/linalg"
)

// Featurizer caches, for one dataset, the expanded basis columns of every
// (variable, transform) pair: z, z², z³, and the three truncated-power
// spline cubes — the superset every TransformCode selects a prefix or subset
// of. Design matrices for arbitrary specs are then assembled by gathering
// cached column slices plus only the spec's interaction products, instead of
// re-applying the power/standardize/clamp/spline pipeline to every row for
// every candidate model. This is the featurize layer of the modeling stack:
// genetic fitness evaluation calls Design/Fit thousands of times against the
// same rows, and the transform work is identical across specs.
//
// The dataset is validated (Check + finiteness) once at construction, not
// once per fit.
//
// A Featurizer is immutable after construction and safe for concurrent use.
type Featurizer struct {
	prep *Prep
	ds   *Dataset
	// basis[v][k] is the cached column k of variable v over all rows:
	// k = 0..2 are z, z², z³; k = 3..5 are (z-a)³₊, (z-b)³₊, (z-c)³₊.
	basis [][6][]float64
}

// NewFeaturizer learns preprocessing from ds (Prepare) and caches the basis
// columns. When stabilize is false, powers are fixed at 1.
func NewFeaturizer(ds *Dataset, stabilize bool) (*Featurizer, error) {
	if err := ds.Check(); err != nil {
		return nil, err
	}
	if err := checkFinite(ds); err != nil {
		return nil, err
	}
	return buildFeaturizer(Prepare(ds, stabilize), ds), nil
}

// FeaturizeWith caches basis columns of ds under an existing Prep (for
// example, preprocessing learned from a superset of ds, as the weighted
// per-application fits of Section 3.3 require).
func FeaturizeWith(prep *Prep, ds *Dataset) (*Featurizer, error) {
	if err := ds.Check(); err != nil {
		return nil, err
	}
	if prep.NumVars() != ds.NumVars() {
		return nil, fmt.Errorf("%w: prep has %d variables, dataset %d",
			ErrBadInput, prep.NumVars(), ds.NumVars())
	}
	if err := checkFinite(ds); err != nil {
		return nil, err
	}
	return buildFeaturizer(prep, ds), nil
}

func buildFeaturizer(prep *Prep, ds *Dataset) *Featurizer {
	n, p := ds.NumRows(), ds.NumVars()
	f := &Featurizer{prep: prep, ds: ds, basis: make([][6][]float64, p)}
	backing := make([]float64, n*6*p)
	for v := 0; v < p; v++ {
		for k := 0; k < 6; k++ {
			f.basis[v][k] = backing[:n:n]
			backing = backing[n:]
		}
		b := &f.basis[v]
		knots := prep.Knots[v]
		for i := 0; i < n; i++ {
			z := prep.z(v, ds.X.At(i, v))
			b[0][i] = z
			b[1][i] = z * z
			b[2][i] = z * z * z
			for k, kn := range knots {
				d := z - kn
				if d < 0 {
					d = 0
				}
				b[3+k][i] = d * d * d
			}
		}
	}
	return f
}

// Prep returns the preprocessing state shared with fitted models' predict
// path.
func (f *Featurizer) Prep() *Prep { return f.prep }

// NumRows returns the cached row count.
func (f *Featurizer) NumRows() int { return f.ds.NumRows() }

// Design assembles the design matrix for spec from the cached basis columns.
// Only interaction products are computed fresh (one multiply per row per
// interaction).
func (f *Featurizer) Design(spec Spec) (*linalg.Matrix, error) {
	if err := spec.Validate(f.ds.NumVars()); err != nil {
		return nil, err
	}
	m := linalg.NewMatrix(f.ds.NumRows(), numDesignColumns(spec))
	f.fillDesign(spec, m, nil)
	return m, nil
}

// DesignRows assembles design rows for a subset of the cached rows, in the
// given order. The spec must already be validated (Design or Fit).
func (f *Featurizer) DesignRows(spec Spec, rows []int) *linalg.Matrix {
	m := linalg.NewMatrix(len(rows), numDesignColumns(spec))
	f.fillDesign(spec, m, rows)
	return m
}

// fillDesign writes the design for spec into m. rows selects (and orders) the
// source rows; nil means all rows in order.
func (f *Featurizer) fillDesign(spec Spec, m *linalg.Matrix, rows []int) {
	n, stride := m.Rows, m.Cols
	data := m.Data
	for i := 0; i < n; i++ {
		data[i*stride] = 1
	}
	c := 1
	gather := func(src []float64) {
		if rows == nil {
			for i := 0; i < n; i++ {
				data[i*stride+c] = src[i]
			}
		} else {
			for i, r := range rows {
				data[i*stride+c] = src[r]
			}
		}
		c++
	}
	for v, code := range spec.Codes {
		if code == Excluded {
			continue
		}
		b := &f.basis[v]
		gather(b[0])
		if code >= Quadratic {
			gather(b[1])
		}
		if code >= Cubic {
			gather(b[2])
		}
		if code == Spline3 {
			gather(b[3])
			gather(b[4])
			gather(b[5])
		}
	}
	for _, in := range spec.Interactions {
		zi, zj := f.basis[in.I][0], f.basis[in.J][0]
		if rows == nil {
			for i := 0; i < n; i++ {
				data[i*stride+c] = zi[i] * zj[i]
			}
		} else {
			for i, r := range rows {
				data[i*stride+c] = zi[r] * zj[r]
			}
		}
		c++
	}
}

// numDesignColumns returns the design width of spec (intercept included).
func numDesignColumns(spec Spec) int {
	n := 1
	for _, code := range spec.Codes {
		n += code.columns()
	}
	return n + len(spec.Interactions)
}

// Fit fits spec to the featurized dataset: it assembles the design from the
// cached basis columns, bit-identical to the rows the predict path expands
// from raw observations, and solves it by pivoted QR (fitDesign). The
// dataset validation already happened at construction, so only the spec is
// checked here.
//
// Fit is a panic boundary: a panic anywhere below it (dimension mismatches
// in linalg, degenerate splines) is recovered and reported as an error
// wrapping ErrBadInput, so a single corrupt profile cannot kill a
// long-running modeling service.
func (f *Featurizer) Fit(spec Spec, opts Options) (m *Model, err error) {
	defer func() {
		if r := recover(); r != nil {
			m = nil
			err = fmt.Errorf("%w: panic during fit: %v", ErrBadInput, r)
		}
	}()
	design, err := f.Design(spec)
	if err != nil {
		return nil, err
	}
	return fitDesign(spec, f.prep, design, f.ds.Y, opts)
}
