// Package regress implements the statistical-inference layer of the paper
// (Sections 2.3 and 3.1): linear regression over an integrated
// hardware-software space with
//
//   - variance-stabilizing power transformations x -> x^(1/n) chosen per
//     variable by the ladder of powers (Figure 3),
//   - per-variable non-linear transformations — linear, quadratic, cubic,
//     or a piecewise cubic spline with three knots, encoded exactly like the
//     paper's genetic values 1–4,
//   - pairwise interaction terms x_i * x_j,
//   - automatic elimination of collinear terms via rank-revealing QR
//     ("the modeling heuristic must also check for and eliminate collinear
//     variables"), and
//   - error and correlation metrics matching the paper's reporting (median
//     absolute percentage error; Pearson/Spearman correlation).
//
// The package is model-specification-agnostic: package genetic searches the
// space of Specs, and package core assembles Datasets from profiles.
package regress

import (
	"errors"
	"fmt"
	"strings"

	"hsmodel/internal/linalg"
)

// TransformCode is the per-variable genetic value of Section 3.4: 0 excludes
// the variable; 1, 2, 3 add it with a linear, quadratic, or cubic
// transformation; 4 applies a piecewise cubic with three inflection points.
type TransformCode uint8

// Transform codes.
const (
	Excluded TransformCode = iota
	Linear
	Quadratic
	Cubic
	Spline3
	NumTransformCodes // count of codes, for random generation
)

func (t TransformCode) String() string {
	switch t {
	case Excluded:
		return "excluded"
	case Linear:
		return "linear"
	case Quadratic:
		return "quadratic"
	case Cubic:
		return "cubic"
	case Spline3:
		return "spline3"
	}
	return fmt.Sprintf("code(%d)", uint8(t))
}

// columns returns the number of design columns the code expands to.
func (t TransformCode) columns() int {
	switch t {
	case Linear:
		return 1
	case Quadratic:
		return 2
	case Cubic:
		return 3
	case Spline3:
		return 6 // x, x^2, x^3, (x-a)^3+, (x-b)^3+, (x-c)^3+
	}
	return 0
}

// Interaction names a pairwise product term between raw variables I and J.
type Interaction struct {
	I, J int
}

// Canon returns the interaction with I <= J.
func (in Interaction) Canon() Interaction {
	if in.I > in.J {
		return Interaction{I: in.J, J: in.I}
	}
	return in
}

// Spec is a model specification: which variables enter, how each is
// transformed, and which pairs interact. It is the phenotype of the genetic
// chromosome.
type Spec struct {
	Codes        []TransformCode
	Interactions []Interaction
}

// Clone deep-copies the spec.
func (s Spec) Clone() Spec {
	c := Spec{
		Codes:        append([]TransformCode(nil), s.Codes...),
		Interactions: append([]Interaction(nil), s.Interactions...),
	}
	return c
}

// Validate checks internal consistency against a variable count.
func (s Spec) Validate(numVars int) error {
	if len(s.Codes) != numVars {
		return fmt.Errorf("regress: spec has %d codes, want %d", len(s.Codes), numVars)
	}
	for _, c := range s.Codes {
		if c >= NumTransformCodes {
			return fmt.Errorf("regress: invalid transform code %d", c)
		}
	}
	for _, in := range s.Interactions {
		if in.I < 0 || in.I >= numVars || in.J < 0 || in.J >= numVars || in.I == in.J {
			return fmt.Errorf("regress: invalid interaction %d-%d", in.I, in.J)
		}
	}
	return nil
}

// NumTerms returns the count of included variables plus interactions.
func (s Spec) NumTerms() int {
	n := len(s.Interactions)
	for _, c := range s.Codes {
		if c != Excluded {
			n++
		}
	}
	return n
}

// String renders the spec compactly, e.g. "x1:linear x3:spline3 | x1*y2".
func (s Spec) String() string {
	var b strings.Builder
	for i, c := range s.Codes {
		if c == Excluded {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "v%d:%s", i, c)
	}
	if len(s.Interactions) > 0 {
		b.WriteString(" |")
		for _, in := range s.Interactions {
			fmt.Fprintf(&b, " v%d*v%d", in.I, in.J)
		}
	}
	return b.String()
}

// Dataset is a table of observations: n rows of p raw variables plus a
// response. Group labels rows by application for per-application fitness and
// weighted refits; it may be nil when grouping is irrelevant.
type Dataset struct {
	Names []string // p variable names
	X     *linalg.Matrix
	Y     []float64
	Group []int
}

// NumRows returns the observation count.
func (d *Dataset) NumRows() int { return d.X.Rows }

// NumVars returns the raw-variable count.
func (d *Dataset) NumVars() int { return d.X.Cols }

// Check validates dimensions.
func (d *Dataset) Check() error {
	if d.X == nil {
		return errors.New("regress: dataset without X")
	}
	if len(d.Y) != d.X.Rows {
		return fmt.Errorf("regress: %d rows but %d responses", d.X.Rows, len(d.Y))
	}
	if len(d.Names) != d.X.Cols {
		return fmt.Errorf("regress: %d names for %d variables", len(d.Names), d.X.Cols)
	}
	if d.Group != nil && len(d.Group) != d.X.Rows {
		return fmt.Errorf("regress: %d group labels for %d rows", len(d.Group), d.X.Rows)
	}
	return nil
}

// Subset returns a dataset view containing the given row indices (data is
// copied).
func (d *Dataset) Subset(rows []int) *Dataset {
	sub := &Dataset{
		Names: d.Names,
		X:     linalg.NewMatrix(len(rows), d.X.Cols),
		Y:     make([]float64, len(rows)),
	}
	if d.Group != nil {
		sub.Group = make([]int, len(rows))
	}
	for i, r := range rows {
		copy(sub.X.Row(i), d.X.Row(r))
		sub.Y[i] = d.Y[r]
		if d.Group != nil {
			sub.Group[i] = d.Group[r]
		}
	}
	return sub
}
