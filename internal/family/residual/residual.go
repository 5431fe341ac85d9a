// Package residual is the analytical-prior ModelFamily: a closed-form cost
// estimate supplies the first-order structure of the response surface, and a
// learned spline regression corrects what the analysis misses — the
// compositional analytical-ML fusion of Concorde applied to this engine's
// spaces. Fit computes the prior p(row) for every sample, fits a spline
// model to the ratio y/p with the same weighted splits the reference family
// uses, and serves p(row)·correction(row) clamped to the 1.5x envelope of the
// training responses, the bound the spline family's regression applies.
//
// Two priors are built in, auto-selected by the raw-row arity: interval26
// (an interval-analysis CPI estimate over the 13 software + 13 hardware
// integrated variables) and spmv10 (a streaming-bandwidth Mflop/s estimate
// over the Table 5 BCSR blocking space). Both are strictly positive on
// finite rows, so the ratio response stays compatible with the engine's
// log-response fits.
package residual

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"hsmodel/internal/family"
	"hsmodel/internal/family/spline"
	"hsmodel/internal/genetic"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/profile"
	"hsmodel/internal/regress"
)

// FamilyName is the stable identifier of the residual family.
const FamilyName = "residual"

// budget caps stepwise fitness evaluations of the correction search:
// roughly the cost of a few genetic generations, matching the stepwise rung.
const budget = 160

// Prior is a closed-form response estimate over a raw variable row.
type Prior struct {
	// Name identifies the prior in persisted payloads.
	Name string
	// Vars is the raw-row arity the estimate expects.
	Vars int
	// F computes the estimate; it must be strictly positive for every finite
	// row. It may overflow to +Inf far outside the training rows (Fit refuses
	// a training row it is not finite on), which the served clamp bounds.
	F func(raw []float64) float64
}

// Family composes an analytical prior with a learned spline correction. The
// prior is picked by the raw-row arity.
type Family struct{}

// New returns a residual family with built-in prior auto-selection.
func New() *Family { return &Family{} }

// Name implements family.Family.
func (*Family) Name() string { return FamilyName }

// priorByName resolves a persisted prior name (or, with an empty name, the
// default prior for the arity).
func priorByName(name string, numVars int) (Prior, error) {
	candidates := []Prior{Interval26(), SPMV10()}
	for _, p := range candidates {
		if (name == "" || name == p.Name) && p.Vars == numVars {
			return p, nil
		}
	}
	if name == "" {
		return Prior{}, fmt.Errorf("residual: no built-in prior for a %d-variable space", numVars)
	}
	return Prior{}, fmt.Errorf("residual: unknown prior %q for a %d-variable space", name, numVars)
}

// Fit implements family.Family: compute the prior over every row, fit a
// spline correction to the ratio response on the weighted splits, and keep
// the specification that predicts the combined response best.
func (*Family) Fit(ctx context.Context, in family.FitInput) (family.FitOutput, error) {
	var out family.FitOutput
	prior, err := priorByName("", in.NumVars)
	if err != nil {
		return out, err
	}
	ds := in.Dataset
	n := ds.NumRows()
	priors := make([]float64, n)
	ratio := make([]float64, n)
	yLo, yHi, err := regress.Envelope(ds.Y)
	if err != nil {
		return out, fmt.Errorf("residual: %w", err)
	}
	for i := 0; i < n; i++ {
		p := prior.F(ds.X.Row(i))
		if !(p > 0) || math.IsInf(p, 0) {
			return out, fmt.Errorf("residual: prior %s non-positive (%g) on row %d", prior.Name, p, i)
		}
		priors[i] = p
		ratio[i] = ds.Y[i] / p
	}
	ratioDS := &regress.Dataset{Names: ds.Names, X: ds.X, Y: ratio, Group: ds.Group}
	fz, err := regress.NewFeaturizer(ratioDS, in.Stabilize)
	if err != nil {
		return out, fmt.Errorf("residual: featurizing ratio response: %w", err)
	}

	// The correction search scores the combined prediction p·m on the
	// caller's validation rows, so family-internal model selection agrees
	// with the harness's cross-family scoring data.
	order := family.ValOrder(in.ValRows, n)
	val := ds.Subset(order)
	eval := genetic.EvaluatorFunc(func(spec regress.Spec) float64 {
		m, err := fz.Fit(spec, regress.Options{LogResponse: true, Weights: in.Weights})
		if err != nil {
			return family.FailedFit
		}
		combined := m.PredictAll(val)
		for k, r := range order {
			combined[k] = priors[r] * combined[k]
		}
		score := family.ValScore(combined, ds.Y, in.ValRows)
		return score + family.TermPenalty*float64(len(m.Coef))
	})
	corr, _, err := spline.FitStepwise(ctx, family.FitInput{
		NumVars: in.NumVars, Featurizer: fz, Evaluator: eval, LogResponse: true,
	}, budget)
	if err != nil {
		return out, fmt.Errorf("residual: correction: %w", err)
	}
	out.Model = &Model{prior: prior, corr: corr, yLo: yLo, yHi: yHi}
	return out, nil
}

// payload is the persisted form of a residual model. YLo and YHi are the
// served envelope; a payload without them (written before the envelope
// existed) is refused, since its model would serve unbounded answers.
type payload struct {
	Prior string         `json:"prior"`
	Model *regress.Model `json:"model"`
	YLo   float64        `json:"y_lo"`
	YHi   float64        `json:"y_hi"`
}

// Load implements family.Family.
func (*Family) Load(raw json.RawMessage, numVars int) (family.Model, error) {
	var p payload
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("residual: decoding payload: %w", err)
	}
	if err := p.Model.Validate(numVars); err != nil {
		return nil, fmt.Errorf("residual: payload correction model: %w", err)
	}
	if !(p.YLo > 0 && p.YLo < p.YHi) || math.IsInf(p.YHi, 0) {
		return nil, fmt.Errorf("residual: payload envelope [%g, %g] is not a finite positive range", p.YLo, p.YHi)
	}
	prior, err := priorByName(p.Prior, numVars)
	if err != nil {
		return nil, err
	}
	return &Model{prior: prior, corr: p.Model, yLo: p.YLo, yHi: p.YHi}, nil
}

// Model is a fitted residual model: analytical prior times learned
// correction, clamped to [yLo, yHi]. Immutable and safe for concurrent use;
// the scratch pool only recycles predict buffers.
type Model struct {
	prior    Prior
	corr     *regress.Model
	yLo, yHi float64
	scratch  sync.Pool // *regress.PredictScratch
}

// clamp bounds a served product to the training-response envelope. The
// prior is positive but may overflow to +Inf on extreme finite rows, and
// the correction is positive and bounded by its own envelope, so the
// product is never NaN.
//
//hslint:hotpath
func (m *Model) clamp(v float64) float64 {
	if v < m.yLo {
		return m.yLo
	}
	if v > m.yHi {
		return m.yHi
	}
	return v
}

func (m *Model) getScratch() *regress.PredictScratch {
	if s, ok := m.scratch.Get().(*regress.PredictScratch); ok {
		return s
	}
	return &regress.PredictScratch{}
}

// PredictBatch implements family.Model: the correction sweeps the batch
// through its fused kernel, then each slot is multiplied by the analytical
// prior and clamped.
//
//hslint:hotpath
func (m *Model) PredictBatch(rows [][]float64, out []float64) {
	s := m.getScratch()
	m.corr.PredictBatchWith(s, rows, out)
	m.scratch.Put(s)
	for i, raw := range rows {
		out[i] = m.clamp(m.prior.F(raw) * out[i])
	}
}

// Describe implements family.Model.
func (m *Model) Describe() family.Description {
	return family.Description{
		Family: FamilyName,
		Spec:   fmt.Sprintf("%s × %s", m.prior.Name, m.corr.Spec.String()),
		Terms:  len(m.corr.Coef),
		Detail: "prior " + m.prior.Name,
	}
}

// Payload implements family.Model.
func (m *Model) Payload() (json.RawMessage, error) {
	data, err := json.Marshal(payload{Prior: m.prior.Name, Model: m.corr, YLo: m.yLo, YHi: m.yHi})
	if err != nil {
		return nil, fmt.Errorf("residual: encoding payload: %w", err)
	}
	return data, nil
}

// clamp01 bounds a probability-like estimate. NaN, which a footprint and a
// capacity that both overflow to +Inf divide to, counts as 0.
func clamp01(v float64) float64 {
	if !(v > 0) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Interval-analysis constants matching the internal/cpu simulator's memory
// system: miss latency to memory, the branch misprediction penalty, and the
// 64-byte line the reuse-distance characteristics are measured in.
const (
	intervalMemLatency  = 120.0
	intervalL1Latency   = 1.0
	mispredictPenalty   = 8.0
	reuseLineBytes      = 64.0
	perKiloInstructions = 1000.0
)

// Interval26 is the interval-analysis CPI prior over the integrated
// 26-variable space: issue-bound base cycles plus first-order penalties for
// functional-unit contention, branch mispredictions, and cache misses
// estimated from the reuse-distance characteristics against the configured
// capacities. It is a deliberate simplification of internal/cpu — the
// learned correction absorbs second-order structure — but every term is
// non-negative and the base is strictly positive, so the prior is safe
// under log-response ratios.
func Interval26() Prior {
	return Prior{Name: "interval26", Vars: profile.NumCharacteristics + hwspace.NumParams, F: interval26}
}

func interval26(raw []float64) float64 {
	x := raw[:profile.NumCharacteristics]
	h := raw[profile.NumCharacteristics:]
	width := math.Max(1, h[0])
	mshrs := math.Max(1, h[3])
	dcacheBytes := math.Max(1, h[4]) * 1024
	icacheBytes := math.Max(1, h[5]) * 1024
	l2Bytes := math.Max(1, h[6]) * 1024
	l2Lat := math.Max(intervalL1Latency, h[7])
	intALUs := math.Max(1, h[8])
	intMuls := math.Max(1, h[9])
	fpALUs := math.Max(1, h[10])
	fpMuls := math.Max(1, h[11])
	ports := math.Max(1, h[12])

	perInst := func(i int) float64 { return math.Max(0, x[i]) / perKiloInstructions }

	// Issue-bound base: one instruction per width cycles.
	cpi := 1 / width

	// Functional-unit contention: demanded occupancy per unit, with the
	// multi-cycle classes weighted by their execution latencies.
	cpi += perInst(profile.XIntALU) / intALUs
	cpi += 3 * perInst(profile.XIntMulDiv) / intMuls
	cpi += 2 * perInst(profile.XFPALU) / fpALUs
	cpi += 4 * perInst(profile.XFPMulDiv) / fpMuls
	cpi += perInst(profile.XMemory) / ports

	// Branch mispredictions: the control-density share of taken branches
	// pays the pipeline refill.
	cpi += 0.1 * perInst(profile.XTakenBranches) * mispredictPenalty

	// Data-side stalls: reuse distance (in 64-byte lines) against each
	// capacity approximates the miss probability; misses overlap across the
	// configured MSHRs.
	dFootprint := math.Max(0, x[profile.XDReuse]) * reuseLineBytes
	missL1 := clamp01(dFootprint / dcacheBytes)
	missL2 := clamp01(dFootprint / l2Bytes)
	memStall := missL1 * ((1-missL2)*l2Lat + missL2*intervalMemLatency)
	cpi += perInst(profile.XMemory) * memStall / math.Sqrt(mshrs)

	// Instruction-side stalls: same capacity argument against the i-cache,
	// serialized (front-end misses do not overlap).
	iFootprint := math.Max(0, x[profile.XIReuse]) * reuseLineBytes
	cpi += clamp01(iFootprint/icacheBytes) * l2Lat / width

	return cpi
}

// Streaming-bandwidth constants matching the internal/spmv kernel model.
const (
	spmvMemBaseLatency   = 20.0
	spmvMemBytesPerCycle = 8.0
	spmvClockMHz         = 400.0
	spmvValueBytes       = 8.0
	spmvIndexBytes       = 4.0
)

// SPMV10 is the Mflop/s prior over the Table 5 BCSR blocking space: useful
// flops per stored value shrink with the fill ratio, while the streaming
// cost per value amortizes index overhead over the block and the line size
// over the transfer — the first-order blocking trade-off of Section 5.3.
func SPMV10() Prior {
	return Prior{Name: "spmv10", Vars: 10, F: spmv10}
}

func spmv10(raw []float64) float64 {
	r := math.Max(1, raw[0])
	c := math.Max(1, raw[1])
	fill := math.Max(1, raw[2])
	lineBytes := math.Max(16, raw[3])
	dcacheBytes := math.Max(1024, raw[4])

	// Bytes streamed per stored value: the value itself plus the block
	// column index amortized over the block.
	bytesPerVal := spmvValueBytes + spmvIndexBytes/(r*c)
	// Line fetches per value, each paying the fixed latency plus transfer.
	missCost := spmvMemBaseLatency + lineBytes/spmvMemBytesPerCycle
	linesPerVal := bytesPerVal / lineBytes
	// Source-vector pressure: small data caches re-fetch x entries; wider
	// blocks reuse each x entry r times per block column.
	vecPenalty := clamp01(256*1024/dcacheBytes) / r
	cyclesPerVal := 2 + linesPerVal*missCost + vecPenalty

	// True flops per stored value shrink with fill (explicit zeros compute
	// but do not count); cycles convert to Mflop/s at the design clock.
	flopsPerVal := 2 / fill
	return spmvClockMHz * flopsPerVal / cyclesPerVal
}
