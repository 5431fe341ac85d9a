package spmv

import (
	"context"
	"fmt"
	"sync/atomic"

	"hsmodel/internal/family"
	"hsmodel/internal/family/spline"
	"hsmodel/internal/genetic"
	"hsmodel/internal/linalg"
	"hsmodel/internal/regress"
)

// NumDomainVars is the domain-specific variable count of Table 5: three
// software knobs (block rows, block columns, fill ratio) and seven cache
// parameters. Ten semantic-rich parameters replace the 26 instruction-level
// variables of the general study — "models use fewer, semantic-rich
// parameters to greater effect" (Section 5.3).
const NumDomainVars = 10

// DomainVarNames returns the Table 5 variable names in dataset order.
func DomainVarNames() []string {
	return []string{
		"brow", "bcol", "fR",
		"lsize", "dsize", "dways", "drepl", "isize", "iways", "irepl",
	}
}

// Response selects the prediction target of a domain model.
type Response int

// Prediction targets (Figure 14 reports both).
const (
	PredictMFlops Response = iota
	PredictWatts
)

func (r Response) String() string {
	if r == PredictWatts {
		return "power"
	}
	return "performance"
}

// BuildDomainDataset converts sampled points into a regression dataset for
// the given response.
func BuildDomainDataset(points []Point, resp Response) *regress.Dataset {
	ds := &regress.Dataset{
		Names: DomainVarNames(),
		X:     linalg.NewMatrix(len(points), NumDomainVars),
		Y:     make([]float64, len(points)),
	}
	for i, pt := range points {
		row, hw := ds.X.Row(i), pt.Cfg.Vector()
		row[0], row[1], row[2] = float64(pt.R), float64(pt.C), pt.Fill
		copy(row[3:], hw[:])
		switch resp {
		case PredictWatts:
			ds.Y[i] = pt.Watts
		default:
			ds.Y[i] = pt.MFlops
		}
	}
	return ds
}

// DomainModel is a fitted domain-specific model for one matrix and response.
type DomainModel struct {
	Resp     Response
	Model    family.Model // the spline family's fit
	Fitness  float64      // hold-out fitness of the chosen specification
	Searched int          // fitness evaluations spent
}

// Predict returns the model's prediction for every point, in one batch. It
// reads each point's block size, fill ratio and cache configuration; the
// fill ratio must be the variant's (Study.FillRatio — it is a property of
// matrix and block size, not of execution).
func (dm *DomainModel) Predict(points []Point) []float64 {
	x := BuildDomainDataset(points, dm.Resp).X
	rows := make([][]float64, len(points))
	for i := range rows {
		rows[i] = x.Row(i)
	}
	out := make([]float64, len(points))
	dm.Model.PredictBatch(rows, out)
	return out
}

// TrainDomainModel fits a model for one response from sampled points through
// the spline family: the genetic specification search of Section 3 over the
// ten Table 5 variables, then the winning specification fitted on every
// point. Cancelling ctx aborts the search.
func TrainDomainModel(ctx context.Context, matrix string, points []Point, resp Response, search genetic.Params) (*DomainModel, error) {
	ds := BuildDomainDataset(points, resp)
	// Featurize once over all points: preprocessing (powers, knots) is
	// learned from the full dataset and the cached basis columns are shared
	// by every candidate fit of the search.
	fzFull, err := regress.NewFeaturizer(ds, true)
	if err != nil {
		return nil, fmt.Errorf("spmv: featurizing %s %s: %w", matrix, resp, err)
	}

	// Search fitness holds out every fourth point: points were sampled
	// uniformly at random, so striding is an unbiased split.
	if len(points) < 4 {
		return nil, fmt.Errorf("spmv: too few points (%d) to train", len(points))
	}
	eval, err := family.HoldOutEvaluator(ds, fzFull.Prep())
	if err != nil {
		return nil, fmt.Errorf("spmv: featurizing %s %s: %w", matrix, resp, err)
	}
	// The search's memo calls the evaluator once per distinct specification,
	// so the call count is the search's evaluation count.
	var searched atomic.Int64
	out, err := spline.New().Fit(ctx, family.FitInput{
		NumVars:    NumDomainVars,
		Dataset:    ds,
		Featurizer: fzFull,
		Evaluator: genetic.EvaluatorFunc(func(spec regress.Spec) float64 {
			searched.Add(1)
			return eval.Fitness(spec)
		}),
		Search:      search,
		LogResponse: true,
	})
	if err != nil {
		return nil, fmt.Errorf("spmv: training %s %s: %w", matrix, resp, err)
	}
	return &DomainModel{
		Resp:     resp,
		Model:    out.Model,
		Fitness:  out.Population[0].Fitness,
		Searched: int(searched.Load()),
	}, nil
}

// EvaluateDomainModel reports accuracy on held-out points, predicted in one
// batch.
func EvaluateDomainModel(dm *DomainModel, points []Point) regress.Metrics {
	return regress.Assess(dm.Predict(points), BuildDomainDataset(points, dm.Resp).Y)
}
