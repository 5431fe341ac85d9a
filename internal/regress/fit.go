package regress

import (
	"errors"
	"fmt"
	"math"

	"hsmodel/internal/linalg"
	"hsmodel/internal/stats"
)

// Options controls fitting.
type Options struct {
	// LogResponse fits log(y) instead of y and exponentiates predictions.
	// Performance and CPI are strictly positive with multiplicative error
	// structure, so this is the default in package core; the ablation bench
	// measures its effect.
	LogResponse bool
	// Weights scales observations (the paper's "{P−s,Ts}×w" weighted fit).
	// Nil means uniform. Length must equal the dataset rows.
	Weights []float64
}

// Model is a fitted regression model: a specification, the preprocessing
// learned from training data, and coefficients, one per design column (a
// column eliminated as collinear has coefficient exactly 0). Predictions
// require only the raw variable vector, so a Model is self-contained and
// serializable.
type Model struct {
	Spec Spec
	Prep *Prep
	Coef []float64
	// LogResponse records the response transform used at fit time.
	LogResponse bool
	// YLo and YHi clamp predictions. They are set at fit time to the
	// Envelope of the observed responses: a performance model extrapolating
	// a new application should saturate, not explode.
	YLo, YHi float64
}

// Envelope returns the prediction envelope of the responses resp: their
// range widened by a factor of 1.5 away from zero on each side, so a
// positive bound is divided (low) or multiplied (high) by 1.5 and a negative
// one the other way round. Responses with no range to widen (none, or all
// zero) are ErrBadInput: Validate refuses a model with an empty envelope at
// load.
func Envelope(resp []float64) (lo, hi float64, err error) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range resp {
		lo, hi = min(lo, v), max(hi, v)
	}
	if lo > 0 {
		lo /= 1.5
	} else {
		lo *= 1.5
	}
	if hi > 0 {
		hi *= 1.5
	} else {
		hi /= 1.5
	}
	if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, 0, fmt.Errorf("%w: responses give no finite envelope [%g, %g]", ErrBadInput, lo, hi)
	}
	return lo, hi, nil
}

// Validate checks that m is a model over numVars raw variables which the
// predict path can evaluate without indexing out of range or answering an
// unbounded value: the spec is valid for numVars, every preprocessing slice
// has one entry per variable, there is one finite coefficient per design
// column, and the prediction envelope is a finite range with YLo < YHi. Every
// path that decodes a persisted model calls it before serving the model.
func (m *Model) Validate(numVars int) error {
	if m == nil || m.Prep == nil {
		return errors.New("regress: model has no preprocessing")
	}
	if err := m.Spec.Validate(numVars); err != nil {
		return err
	}
	p := m.Prep
	for _, f := range []struct {
		name string
		n    int
	}{
		{"Names", len(p.Names)}, {"Powers", len(p.Powers)}, {"Means", len(p.Means)},
		{"Sds", len(p.Sds)}, {"Knots", len(p.Knots)}, {"ZLo", len(p.ZLo)}, {"ZHi", len(p.ZHi)},
	} {
		if f.n != numVars {
			return fmt.Errorf("regress: preprocessing %s has %d variables, want %d", f.name, f.n, numVars)
		}
	}
	if want := numDesignColumns(m.Spec); len(m.Coef) != want {
		return fmt.Errorf("regress: model has %d coefficients, its spec has %d design columns", len(m.Coef), want)
	}
	for j, c := range m.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("regress: coefficient %d is %v", j, c)
		}
	}
	if !(m.YLo < m.YHi) || math.IsInf(m.YLo, 0) || math.IsInf(m.YHi, 0) {
		return fmt.Errorf("regress: prediction envelope [%g, %g] is not a finite range", m.YLo, m.YHi)
	}
	return nil
}

// ErrTooFewRows is returned when a fit has fewer observations than design
// columns.
var ErrTooFewRows = errors.New("regress: fewer observations than design columns")

// ErrBadInput marks fits rejected because the data itself is unusable:
// NaN/Inf profile rows, non-positive responses under LogResponse, or
// mismatched weight vectors. Callers degrade or skip, they do not retry.
var ErrBadInput = errors.New("regress: bad input")

// ErrSingular marks fits whose design matrix has no usable solution even
// after column pivoting (e.g. all-constant profiles).
var ErrSingular = errors.New("regress: singular fit")

// checkFinite rejects NaN/Inf observations before they reach the
// factorization, where they would otherwise poison every coefficient or
// panic deep inside linalg.
func checkFinite(ds *Dataset) error {
	for i := 0; i < ds.X.Rows; i++ {
		for _, v := range ds.X.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: non-finite value %g in row %d", ErrBadInput, v, i)
			}
		}
	}
	for i, v := range ds.Y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite response %g in row %d", ErrBadInput, v, i)
		}
	}
	return nil
}

// fitDesign is the pivoted-QR solve behind Featurizer.Fit and the Gram
// path's fallback: response transform, observation weighting, solve, and the
// prediction envelope. design is consumed (weighting scales its rows in
// place); resp is the raw response vector and is not modified.
func fitDesign(spec Spec, prep *Prep, design *linalg.Matrix, resp []float64, opts Options) (*Model, error) {
	if design.Rows < design.Cols {
		return nil, fmt.Errorf("%w: %d rows, %d columns", ErrTooFewRows, design.Rows, design.Cols)
	}
	y := make([]float64, len(resp))
	for i, v := range resp {
		if opts.LogResponse {
			if v <= 0 {
				return nil, fmt.Errorf("%w: non-positive response %g with LogResponse", ErrBadInput, v)
			}
			y[i] = math.Log(v)
		} else {
			y[i] = v
		}
	}
	yLo, yHi, err := Envelope(resp)
	if err != nil {
		return nil, err
	}
	if opts.Weights != nil {
		if len(opts.Weights) != design.Rows {
			return nil, fmt.Errorf("%w: %d weights for %d rows", ErrBadInput, len(opts.Weights), design.Rows)
		}
		for i := 0; i < design.Rows; i++ {
			w := math.Sqrt(opts.Weights[i])
			row := design.Row(i)
			for j := range row {
				row[j] *= w
			}
			y[i] *= w
		}
	}
	coef, err := linalg.Factor(design).Solve(y)
	if err != nil {
		if errors.Is(err, linalg.ErrRankDeficient) {
			return nil, fmt.Errorf("%w: %w", ErrSingular, err)
		}
		return nil, err
	}
	return &Model{
		Spec:        spec,
		Prep:        prep,
		Coef:        coef,
		LogResponse: opts.LogResponse,
		YLo:         yLo,
		YHi:         yHi,
	}, nil
}

// Metrics summarizes predictive accuracy the way the paper reports it.
type Metrics struct {
	MedAPE   float64 // median absolute percentage error (Figures 7, 10, 14)
	MeanAPE  float64
	Pearson  float64 // predicted-vs-true correlation (Figure 8)
	Spearman float64
	R2       float64
	N        int
}

func (m Metrics) String() string {
	return fmt.Sprintf("medAPE=%.1f%% meanAPE=%.1f%% rho=%.3f spearman=%.3f R2=%.3f n=%d",
		100*m.MedAPE, 100*m.MeanAPE, m.Pearson, m.Spearman, m.R2, m.N)
}

// Evaluate computes accuracy metrics of the model on a validation dataset.
func (m *Model) Evaluate(ds *Dataset) Metrics {
	pred := m.PredictAll(ds)
	return Assess(pred, ds.Y)
}

// Assess computes accuracy metrics for a prediction/truth pairing.
func Assess(pred, truth []float64) Metrics {
	met := Metrics{
		MedAPE:   stats.MedianAbsPctError(pred, truth),
		MeanAPE:  stats.MeanAbsPctError(pred, truth),
		Pearson:  stats.Pearson(pred, truth),
		Spearman: stats.Spearman(pred, truth),
		N:        len(pred),
	}
	// R^2 against the mean of truth.
	mean := stats.Mean(truth)
	var ssRes, ssTot float64
	for i := range truth {
		d := truth[i] - pred[i]
		ssRes += d * d
		t := truth[i] - mean
		ssTot += t * t
	}
	if ssTot > 0 {
		met.R2 = 1 - ssRes/ssTot
	}
	return met
}
