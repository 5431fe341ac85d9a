package spmv

import (
	"context"
	"fmt"

	"hsmodel/internal/family"
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

// domainRow encodes one observation's raw variables.
func domainRow(pt Point) []float64 {
	hw := pt.Cfg.Vector()
	row := make([]float64, 0, NumDomainVars)
	row = append(row, float64(pt.R), float64(pt.C), pt.Fill)
	row = append(row, hw[:]...)
	return row
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
		copy(ds.X.Row(i), domainRow(pt))
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
	Matrix   string
	Resp     Response
	Model    *regress.Model
	Fitness  float64
	Searched int // fitness evaluations spent
}

// Predict returns the model's prediction for a block size and cache
// configuration. fill must be the variant's fill ratio (available from
// Study.FillRatio — it is a property of matrix and block size, not of
// execution).
func (dm *DomainModel) Predict(r, c int, fill float64, cfg CacheConfig) float64 {
	return dm.Model.Predict(domainRow(Point{R: r, C: c, Fill: fill, Cfg: cfg}))
}

// TrainOptions configures domain-model training.
type TrainOptions struct {
	// Search configures the genetic search; domain models converge with a
	// smaller effort than the 26-variable general models.
	Search genetic.Params
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Search.PopulationSize == 0 {
		o.Search.PopulationSize = 30
	}
	if o.Search.Generations == 0 {
		o.Search.Generations = 12
	}
	return o
}

// TrainDomainModel fits a model for one response from sampled points via
// genetic specification search. Cancelling ctx aborts the search.
func TrainDomainModel(ctx context.Context, matrix string, points []Point, resp Response, opts TrainOptions) (*DomainModel, error) {
	opts = opts.withDefaults()
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
	res, err := genetic.Search(ctx, NumDomainVars, eval, opts.Search)
	if err != nil {
		return nil, fmt.Errorf("spmv: search for %s %s: %w", matrix, resp, err)
	}

	final, err := fzFull.Fit(res.Best.Spec, regress.Options{LogResponse: true})
	if err != nil {
		return nil, fmt.Errorf("spmv: final fit for %s %s: %w", matrix, resp, err)
	}
	return &DomainModel{
		Matrix:   matrix,
		Resp:     resp,
		Model:    final,
		Fitness:  res.Best.Fitness,
		Searched: res.Evals,
	}, nil
}

// Models bundles the performance and power models of one matrix.
type Models struct {
	Perf  *DomainModel
	Power *DomainModel
}

// TrainModels trains both responses from one sampled point set.
func TrainModels(ctx context.Context, matrix string, points []Point, opts TrainOptions) (Models, error) {
	perf, err := TrainDomainModel(ctx, matrix, points, PredictMFlops, opts)
	if err != nil {
		return Models{}, err
	}
	pow, err := TrainDomainModel(ctx, matrix, points, PredictWatts, opts)
	if err != nil {
		return Models{}, err
	}
	return Models{Perf: perf, Power: pow}, nil
}

// EvaluateDomainModel reports accuracy on held-out points.
func EvaluateDomainModel(dm *DomainModel, points []Point) regress.Metrics {
	return dm.Model.Evaluate(BuildDomainDataset(points, dm.Resp))
}
