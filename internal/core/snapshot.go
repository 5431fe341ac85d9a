package core

import (
	"errors"
	"sync"

	"hsmodel/internal/family"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
)

// ErrNotTrained is returned by prediction methods before any model has been
// fitted (or loaded).
var ErrNotTrained = errors.New("core: model not trained")

// Snapshot is an immutable fitted model plus the metadata needed to serve
// it: the fitted family model (for the reference spline family this carries
// the regression with the featurizer's preprocessing state — powers, knots,
// standardization moments), the family that produced it and the per-family
// scores of the selection round that chose it, the profiling shard
// length, the ladder rung that produced it, and the training-row count. A
// Trainer publishes a new Snapshot atomically at the end of every successful
// training run; readers hold a Snapshot and are immune to concurrent
// retraining. Snapshot is also the unit of persistence (Save/LoadSnapshot),
// so publication identity (generation, publish time) lives on the Trainer's
// Publication record, not here.
//
// All fields are set at construction and never mutated, so a Snapshot is
// safe for unsynchronized concurrent use.
type Snapshot struct {
	famName     string
	fam         family.Model
	scores      map[string]float64 // per-family selection scores; nil without selection
	shardLen    int
	rung        Rung
	trainedRows int
}

// newSnapshot is the one Snapshot constructor: both training rungs and
// LoadSnapshot build through it. shardLen <= 0 defaults to DefaultShardLen.
func newSnapshot(famName string, fam family.Model, scores map[string]float64, shardLen int, rung Rung, trainedRows int) *Snapshot {
	if shardLen <= 0 {
		shardLen = DefaultShardLen
	}
	return &Snapshot{
		famName:     famName,
		fam:         fam,
		scores:      scores,
		shardLen:    shardLen,
		rung:        rung,
		trainedRows: trainedRows,
	}
}

// Trained reports whether the snapshot carries a fitted model. Safe on nil.
func (s *Snapshot) Trained() bool { return s != nil && s.fam != nil }

// Family returns the name of the family that produced the model ("spline"
// on the stepwise rung), or "" before training.
func (s *Snapshot) Family() string {
	if s == nil || s.fam == nil {
		return ""
	}
	return s.famName
}

// FamilyScores returns the per-family selection scores (CV MedAPE on the
// weighted splits) of the round that chose this model, or nil when the
// model came from the stepwise rung. The returned map is shared and must not
// be mutated.
func (s *Snapshot) FamilyScores() map[string]float64 {
	if s == nil {
		return nil
	}
	return s.scores
}

// Describe reports the served model's displayable provenance; the zero
// Description before training.
func (s *Snapshot) Describe() family.Description {
	if s == nil || s.fam == nil {
		return family.Description{}
	}
	return s.fam.Describe()
}

// ShardLen returns the profiling shard length (in instructions) the model's
// training profiles were measured at.
func (s *Snapshot) ShardLen() int { return s.shardLen }

// Rung reports which degradation-ladder rung produced the model.
func (s *Snapshot) Rung() Rung { return s.rung }

// TrainedRows returns the number of profile rows the model was fitted on.
func (s *Snapshot) TrainedRows() int { return s.trainedRows }

// shardScratch is the one-row batch of a single-shard prediction: the row,
// the batch's row header and the output slot. It is pooled because all three
// escape through the family's interface call; rows[0] aliases row.
type shardScratch struct {
	row  [NumVars]float64
	rows [1][]float64
	out  [1]float64
}

var shardScratchPool = sync.Pool{New: func() any {
	q := new(shardScratch)
	q.rows[0] = q.row[:]
	return q
}}

// PredictShard predicts the CPI of a shard with characteristics x on
// hardware hw, as a batch of one on a pooled scratch, so once warm it
// allocates nothing. Safe on a nil snapshot (returns ErrNotTrained).
//
//hslint:hotpath
func (s *Snapshot) PredictShard(x profile.Characteristics, hw hwspace.Config) (float64, error) {
	q := shardScratchPool.Get().(*shardScratch)
	Sample{X: x, HW: hw}.RowInto(q.row[:])
	err := s.PredictBatch(q.rows[:], q.out[:])
	cpi := q.out[0]
	shardScratchPool.Put(q)
	return cpi, err
}

// PredictBatch predicts every raw row of rows into out (out[i] answers
// rows[i]; len(out) must be at least len(rows)) through the family's batch
// kernel, the one predict path of every snapshot. Safe on a nil snapshot
// (returns ErrNotTrained).
//
//hslint:hotpath
func (s *Snapshot) PredictBatch(rows [][]float64, out []float64) error {
	if s == nil || s.fam == nil {
		return ErrNotTrained
	}
	s.fam.PredictBatch(rows, out)
	return nil
}

// PredictApplication predicts whole-application CPI on hw by predicting
// every constituent shard in one batch and aggregating (shards have equal
// instruction counts, so application CPI is the mean of shard CPIs, summed
// in shard order). "A few inaccurate shard predictions have a small effect
// on the end-to-end prediction."
func (s *Snapshot) PredictApplication(shards []profile.Characteristics, hw hwspace.Config) (float64, error) {
	if len(shards) == 0 {
		return 0, errors.New("core: no shards to predict")
	}
	rows := make([][]float64, len(shards))
	for i, x := range shards {
		rows[i] = Sample{X: x, HW: hw}.Row()
	}
	pred := make([]float64, len(shards))
	if err := s.PredictBatch(rows, pred); err != nil {
		return 0, err
	}
	var sum float64
	for _, v := range pred {
		sum += v
	}
	return sum / float64(len(shards)), nil
}

// PredictSamples predicts every sample in one batch and returns the
// predictions beside the measured CPIs. Safe on a nil snapshot (returns
// ErrNotTrained).
func (s *Snapshot) PredictSamples(samples []Sample) (pred, truth []float64, err error) {
	rows := make([][]float64, len(samples))
	truth = make([]float64, len(samples))
	for i, smp := range samples {
		rows[i] = smp.Row()
		truth[i] = smp.CPI
	}
	pred = make([]float64, len(samples))
	return pred, truth, s.PredictBatch(rows, pred)
}

// EvaluateOn measures model accuracy on held-out samples, predicted in one
// batch.
func (s *Snapshot) EvaluateOn(samples []Sample) (regress.Metrics, error) {
	pred, truth, err := s.PredictSamples(samples)
	if err != nil {
		return regress.Metrics{}, err
	}
	return regress.Assess(pred, truth), nil
}
