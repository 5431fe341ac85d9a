package regress

import (
	"math"

	"hsmodel/internal/stats"
)

// Prep holds the per-variable preprocessing learned from training data:
// the variance-stabilizing power (ladder of powers, Section 3.1), the
// standardization moments of the stabilized values, and the spline knot
// locations (placed at the 20th/50th/80th percentiles, Harrell's default
// placement for three knots).
type Prep struct {
	Names  []string
	Powers []float64
	Means  []float64
	Sds    []float64
	Knots  [][3]float64
	// ZLo and ZHi bound each variable's standardized training range.
	// Prediction inputs are clamped to this range (plus a small margin):
	// polynomial and truncated-power-spline terms diverge cubically outside
	// the data, so unbounded extrapolation — exactly the new-application
	// scenario of Section 4.4 — would otherwise produce wild predictions.
	// Clamping yields constant extrapolation beyond the observed range.
	ZLo, ZHi []float64
}

// NumVars returns the raw-variable count the Prep was built for.
func (p *Prep) NumVars() int { return len(p.Powers) }

// Prepare learns preprocessing from a training dataset. When stabilize is
// false, powers are fixed at 1 (the ablation baseline); otherwise each
// variable gets the ladder-of-powers exponent minimizing skewness.
func Prepare(ds *Dataset, stabilize bool) *Prep {
	p := ds.NumVars()
	n := ds.NumRows()
	prep := &Prep{
		Names:  ds.Names,
		Powers: make([]float64, p),
		Means:  make([]float64, p),
		Sds:    make([]float64, p),
		Knots:  make([][3]float64, p),
		ZLo:    make([]float64, p),
		ZHi:    make([]float64, p),
	}
	col := make([]float64, n)
	for v := 0; v < p; v++ {
		for i := 0; i < n; i++ {
			col[i] = ds.X.At(i, v)
		}
		prep.Powers[v] = 1
		if stabilize {
			prep.Powers[v] = stats.ChoosePower(col)
		}
		stats.ApplyPower(col, prep.Powers[v])
		prep.Means[v] = stats.Mean(col)
		sd := stats.StdDev(col)
		if sd == 0 {
			sd = 1
		}
		prep.Sds[v] = sd
		// Standardize before placing knots so knots live in z-space.
		z := make([]float64, n)
		for i, x := range col {
			z[i] = (x - prep.Means[v]) / sd
		}
		q := stats.Quantiles(z, 0, 0.2, 0.5, 0.8, 1)
		prep.Knots[v] = [3]float64{q[1], q[2], q[3]}
		prep.ZLo[v] = q[0]
		prep.ZHi[v] = q[4]
	}
	return prep
}

// z returns the stabilized, standardized value of raw variable v, clamped
// to the training range (see ZLo/ZHi).
func (p *Prep) z(v int, raw float64) float64 {
	x := raw
	if pw := p.Powers[v]; pw != 1 {
		if x < 0 {
			x = 0
		}
		x = math.Pow(x, pw)
	}
	z := (x - p.Means[v]) / p.Sds[v]
	if p.ZLo != nil {
		if z < p.ZLo[v] {
			z = p.ZLo[v]
		}
		if z > p.ZHi[v] {
			z = p.ZHi[v]
		}
	}
	return z
}

// fillDesignRow expands one raw observation into the design row for spec in a
// single fused pass per variable: the stabilized, standardized value z is
// computed once per included variable (into the caller's z scratch, length
// NumVars) and every polynomial and truncated-power spline basis derives from
// that one value. Interaction columns read the cached z of included variables
// and compute it only for excluded ones. z is a pure function of (variable,
// raw value), so the caching is bit-identical to recomputation. row must have
// length equal to the number of design columns.
//
//hslint:hotpath
func (p *Prep) fillDesignRow(spec Spec, raw, z, row []float64) {
	row[0] = 1
	c := 1
	for v, code := range spec.Codes {
		if code == Excluded {
			continue
		}
		zv := p.z(v, raw[v])
		z[v] = zv
		row[c] = zv
		c++
		if code >= Quadratic {
			row[c] = zv * zv
			c++
		}
		if code >= Cubic {
			row[c] = zv * zv * zv
			c++
		}
		if code == Spline3 {
			for _, k := range p.Knots[v] {
				d := zv - k
				if d < 0 {
					d = 0
				}
				row[c] = d * d * d
				c++
			}
		}
	}
	for _, in := range spec.Interactions {
		zi := z[in.I]
		if spec.Codes[in.I] == Excluded {
			zi = p.z(in.I, raw[in.I])
		}
		zj := z[in.J]
		if spec.Codes[in.J] == Excluded {
			zj = p.z(in.J, raw[in.J])
		}
		row[c] = zi * zj
		c++
	}
}
