package regress

import (
	"math"

	"hsmodel/internal/linalg"
)

// PredictScratch holds the reusable buffers of the predict hot path: the
// per-variable z cache and the contiguous design-matrix backing. A scratch
// belongs to exactly one goroutine at a time (callers pool them); the zero
// value is ready to use and grows to the high-water mark of the models it
// serves, so steady-state predictions allocate nothing.
type PredictScratch struct {
	z      []float64 // standardized-value cache, one slot per raw variable
	design []float64 // row-major design backing, rows*cols
	dm     linalg.Matrix
}

// designFor sizes the scratch for n rows of m's design and returns the
// design matrix over its backing.
func (s *PredictScratch) designFor(m *Model, n int) *linalg.Matrix {
	numVars, cols := m.Prep.NumVars(), len(m.Coef)
	if cap(s.z) < numVars {
		s.z = make([]float64, numVars)
	}
	s.z = s.z[:numVars]
	if cap(s.design) < n*cols {
		s.design = make([]float64, n*cols)
	}
	s.design = s.design[:n*cols]
	s.dm.Rows, s.dm.Cols, s.dm.Data = n, cols, s.design
	return &s.dm
}

// PredictDesign is the one prediction kernel: every row of an expanded
// design (for example one assembled by Featurizer.DesignRows) times the
// coefficients as a single matrix-vector sweep through linalg, then the
// response transform and the prediction envelope. out[i] answers design row
// i; len(out) must be at least design.Rows.
//
//hslint:hotpath
func (m *Model) PredictDesign(design *linalg.Matrix, out []float64) {
	out = out[:design.Rows]
	design.MulVecInto(m.Coef, out)
	for i, v := range out {
		out[i] = m.finish(v)
	}
}

// PredictBatchWith predicts every raw row of rows into out (out[i] answers
// rows[i]; len(out) must be at least len(rows)), reusing the caller's
// scratch: each row is expanded into the scratch's contiguous design and the
// whole batch goes through PredictDesign.
//
//hslint:hotpath
func (m *Model) PredictBatchWith(s *PredictScratch, rows [][]float64, out []float64) {
	design := s.designFor(m, len(rows))
	for i, raw := range rows {
		m.Prep.fillDesignRow(m.Spec, raw, s.z, design.Row(i))
	}
	m.PredictDesign(design, out)
}

// finish applies the response transform and the prediction envelope to a
// design-row dot product.
//
//hslint:hotpath
func (m *Model) finish(s float64) float64 {
	if m.LogResponse {
		s = math.Exp(s)
	}
	if m.YHi > m.YLo {
		if s < m.YLo {
			s = m.YLo
		}
		if s > m.YHi {
			s = m.YHi
		}
	}
	return s
}

// PredictAll returns predictions for every row of ds in one batch.
func (m *Model) PredictAll(ds *Dataset) []float64 {
	rows := make([][]float64, ds.NumRows())
	for i := range rows {
		rows[i] = ds.X.Row(i)
	}
	out := make([]float64, len(rows))
	m.PredictBatchWith(new(PredictScratch), rows, out)
	return out
}
