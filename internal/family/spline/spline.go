// Package spline is the reference ModelFamily: the paper's genetically
// searched spline regression. Fit runs the seeded genetic specification
// search against the caller's weighted-split evaluator and refits the
// winning specification on all rows with uniform weights. A core trainer
// with no Families listed selects this family alone; that is the run the
// Figure 5 convergence numbers are pinned on.
package spline

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"hsmodel/internal/family"
	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
)

// FamilyName is the stable identifier of the reference family.
const FamilyName = "spline"

// Family is the genetic spline-search family. The zero value is ready to
// use; New exists for symmetry with the other families.
type Family struct{}

// New returns the reference spline family.
func New() *Family { return &Family{} }

// Name implements family.Family.
func (*Family) Name() string { return FamilyName }

// Fit runs the genetic specification search and the all-rows final fit.
// The returned FitOutput carries the final population even when the search
// failed, so callers can warm-start a retry from partial progress.
func (*Family) Fit(ctx context.Context, in family.FitInput) (family.FitOutput, error) {
	var out family.FitOutput
	res, serr := genetic.Search(ctx, in.NumVars, in.Evaluator, in.Search)
	out.Population = res.Population
	if serr != nil {
		return out, fmt.Errorf("spline: search failed: %w", serr)
	}
	// Final fit: best specification, all rows, uniform weights.
	model, err := in.Featurizer.Fit(res.Best.Spec, regress.Options{LogResponse: in.LogResponse})
	if err != nil {
		return out, fmt.Errorf("spline: final fit failed: %w", err)
	}
	out.Model = &Model{model: model}
	return out, nil
}

// FitStepwise is the spline family's cheap floor: forward stepwise search
// over in.Evaluator within budget evaluations, then the best specification
// fitted on every row of in.Featurizer with uniform weights, as Fit does
// after its genetic search. Every stepwise search in the tree fits through
// it: the trainer's stepwise rung, the residual correction, DAL's pooled and
// local models and the stepwise ablation. The search Result is returned
// whenever the search ran, for callers that keep its population.
func FitStepwise(ctx context.Context, in family.FitInput, budget int) (*regress.Model, *genetic.Result, error) {
	res, err := genetic.Stepwise(ctx, in.NumVars, in.Evaluator, budget)
	if err != nil {
		return nil, res, fmt.Errorf("spline: stepwise search failed: %w", err)
	}
	model, err := in.Featurizer.Fit(res.Best.Spec, regress.Options{LogResponse: in.LogResponse})
	if err != nil {
		return nil, res, fmt.Errorf("spline: final fit failed: %w", err)
	}
	return model, res, nil
}

// Load implements family.Family: the payload is the regress.Model JSON.
func (*Family) Load(payload json.RawMessage, numVars int) (family.Model, error) {
	var m regress.Model
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("spline: decoding payload: %w", err)
	}
	if err := m.Validate(numVars); err != nil {
		return nil, fmt.Errorf("spline: payload: %w", err)
	}
	return &Model{model: &m}, nil
}

// Model wraps a fitted spline regression as a family.Model. The embedded
// scratch pool makes PredictBatch allocation-free in steady state; it is
// per-fitted-model, so pooled buffers are always sized for this model.
type Model struct {
	model   *regress.Model
	scratch sync.Pool // *regress.PredictScratch
}

// Wrap adapts an already-fitted spline regression (for example the core
// trainer's stepwise-rung fit) into the family contract.
func Wrap(m *regress.Model) *Model { return &Model{model: m} }

// getScratch takes a pooled predict scratch (the pool has no New: a cold
// pool hands out nil and we allocate the one-time scratch here).
func (m *Model) getScratch() *regress.PredictScratch {
	if s, ok := m.scratch.Get().(*regress.PredictScratch); ok {
		return s
	}
	return &regress.PredictScratch{}
}

// PredictBatch implements family.Model: one fused design expansion per row
// into the scratch's contiguous buffer, one matrix-vector sweep for the whole
// batch.
//
//hslint:hotpath
func (m *Model) PredictBatch(rows [][]float64, out []float64) {
	s := m.getScratch()
	m.model.PredictBatchWith(s, rows, out)
	m.scratch.Put(s)
}

// RegressModel exposes the underlying regression, for the training goldens
// that pin its spec and coefficients bit for bit.
func (m *Model) RegressModel() *regress.Model { return m.model }

// Describe implements family.Model.
func (m *Model) Describe() family.Description {
	return family.Description{
		Family: FamilyName,
		Spec:   m.model.Spec.String(),
		Terms:  len(m.model.Coef),
	}
}

// Payload implements family.Model.
func (m *Model) Payload() (json.RawMessage, error) {
	data, err := json.Marshal(m.model)
	if err != nil {
		return nil, fmt.Errorf("spline: encoding payload: %w", err)
	}
	return data, nil
}
