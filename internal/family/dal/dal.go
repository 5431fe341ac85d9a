// Package dal is the divide-and-learn ModelFamily: deterministic k-way
// clustering of the standardized sample space, one local spline model per
// cluster, nearest-cluster dispatch at predict time — the Gong & Chen
// strategy for heterogeneous configuration spaces, where one global
// regression underfits regimes that a handful of local models capture
// cleanly. A pooled stepwise spline model backs the dispatch: clusters too
// thin to support a local fit (and any local fit that fails) fall through
// to it, so a DAL model never predicts from an unfit region.
package dal

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"hsmodel/internal/family"
	"hsmodel/internal/family/spline"
	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
)

// FamilyName is the stable identifier of the divide-and-learn family.
const FamilyName = "dal"

const (
	// budget caps stepwise fitness evaluations per local (and the pooled)
	// model search.
	budget = 120
	// iters bounds Lloyd iterations; assignments converge far earlier on
	// these corpus sizes.
	iters = 25
	// rowsPerCluster sizes k = clamp(rows/rowsPerCluster, 2, 4);
	// minClusterRows is the floor below which a cluster dispatches to the
	// pooled model instead of fitting locally.
	rowsPerCluster = 80
	minClusterRows = 24
)

// Family is the divide-and-learn family. The cluster count follows the row
// count; see rowsPerCluster.
type Family struct{}

// New returns a divide-and-learn family.
func New() *Family { return &Family{} }

// Name implements family.Family.
func (*Family) Name() string { return FamilyName }

// Fit implements family.Family: standardize, cluster with seeded
// deterministic k-means, fit a pooled stepwise model plus one local spline
// model per sufficiently populated cluster.
func (*Family) Fit(ctx context.Context, in family.FitInput) (family.FitOutput, error) {
	var out family.FitOutput
	ds := in.Dataset
	n := ds.NumRows()
	if n < 2*minClusterRows {
		return out, fmt.Errorf("dal: %d rows is too few to divide (need %d)", n, 2*minClusterRows)
	}
	k := min(max(n/rowsPerCluster, 2), 4, n/minClusterRows)

	scale := newScaler(ds)
	centroids, assign := kmeans(ds, scale, k, iters, rng.New(in.Seed^0xda1))

	// Pooled fallback: the stepwise spline floor over the caller's
	// weighted-split evaluator and shared featurizer.
	pooled, _, err := spline.FitStepwise(ctx, in, budget)
	if err != nil {
		return out, fmt.Errorf("dal: pooled model: %w", err)
	}

	locals := make([]*regress.Model, k)
	for j := 0; j < k; j++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("dal: cancelled before cluster %d: %w", j, err)
		}
		rows := clusterRows(assign, j)
		if len(rows) < minClusterRows {
			continue // thin cluster: dispatch to the pooled model
		}
		local, err := fitLocal(ctx, in, rows)
		if err != nil {
			continue // unfit local region: the pooled model covers it
		}
		locals[j] = local
	}

	out.Model = &Model{
		scale:     scale,
		centroids: centroids,
		locals:    locals,
		pooled:    pooled,
	}
	return out, nil
}

// fitLocal fits one cluster's spline model: stepwise search over the
// cluster's rows under the global preprocessing, scored on the cluster's
// share of the caller's validation rows as one group (every cluster row when
// the cluster holds none).
func fitLocal(ctx context.Context, in family.FitInput, rows []int) (*regress.Model, error) {
	sub := in.Dataset.Subset(rows)
	fz, err := regress.FeaturizeWith(in.Featurizer.Prep(), sub)
	if err != nil {
		return nil, err
	}
	var weights []float64
	var valLocal []int
	if in.Weights != nil {
		weights = make([]float64, len(rows))
		for i, r := range rows {
			weights[i] = in.Weights[r]
			if in.Weights[r] == 0 {
				valLocal = append(valLocal, i)
			}
		}
	}
	var split [][]int
	if len(valLocal) > 0 {
		split = [][]int{valLocal}
	}
	val := sub.Subset(family.ValOrder(split, len(rows)))
	eval := genetic.EvaluatorFunc(func(spec regress.Spec) float64 {
		m, err := fz.Fit(spec, regress.Options{LogResponse: in.LogResponse, Weights: weights})
		if err != nil {
			return family.FailedFit
		}
		score := family.ValScore(m.PredictAll(val), sub.Y, split)
		return score + family.TermPenalty*float64(len(m.Coef))
	})
	model, _, err := spline.FitStepwise(ctx, family.FitInput{
		NumVars: in.NumVars, Featurizer: fz, Evaluator: eval, LogResponse: in.LogResponse,
	}, budget)
	return model, err
}

// clusterRows collects (ascending) the row indices assigned to cluster j.
func clusterRows(assign []int, j int) []int {
	var rows []int
	for r, a := range assign {
		if a == j {
			rows = append(rows, r)
		}
	}
	return rows
}

// scaler standardizes raw rows for distance computation.
type scaler struct {
	Means []float64 `json:"means"`
	Stds  []float64 `json:"stds"`
}

func newScaler(ds *regress.Dataset) scaler {
	p := ds.NumVars()
	n := ds.NumRows()
	s := scaler{Means: make([]float64, p), Stds: make([]float64, p)}
	for v := 0; v < p; v++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += ds.X.At(i, v)
		}
		mean := sum / float64(n)
		var ss float64
		for i := 0; i < n; i++ {
			d := ds.X.At(i, v) - mean
			ss += d * d
		}
		std := math.Sqrt(ss / float64(n))
		if std == 0 {
			std = 1
		}
		s.Means[v] = mean
		s.Stds[v] = std
	}
	return s
}

func (s scaler) apply(raw []float64, z []float64) {
	for v := range z {
		z[v] = (raw[v] - s.Means[v]) / s.Stds[v]
	}
}

// kmeans runs seeded deterministic Lloyd iterations over the standardized
// rows: initial centroids are a seeded draw of distinct rows, assignment
// ties break on the lowest centroid index, and an emptied cluster reseeds
// to the row farthest from its assigned centroid (lowest index on ties).
func kmeans(ds *regress.Dataset, scale scaler, k, iters int, src *rng.Source) ([][]float64, []int) {
	n, p := ds.NumRows(), ds.NumVars()
	z := make([][]float64, n)
	backing := make([]float64, n*p)
	for i := 0; i < n; i++ {
		z[i] = backing[i*p : (i+1)*p]
		scale.apply(ds.X.Row(i), z[i])
	}

	centroids := make([][]float64, k)
	for j, r := range src.Perm(n)[:k] {
		centroids[j] = append([]float64(nil), z[r]...)
	}
	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := 0, sqDist(z[i], centroids[0])
			for j := 1; j < k; j++ {
				if d := sqDist(z[i], centroids[j]); d < bestD {
					best, bestD = j, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		counts := make([]int, k)
		for j := range centroids {
			for v := range centroids[j] {
				centroids[j][v] = 0
			}
		}
		for i, j := range assign {
			counts[j]++
			for v := range centroids[j] {
				centroids[j][v] += z[i][v]
			}
		}
		for j := range centroids {
			if counts[j] == 0 {
				// Reseed an emptied cluster to the worst-fit row.
				worst, worstD := 0, -1.0
				for i := 0; i < n; i++ {
					if d := sqDist(z[i], centroids[assign[i]]); d > worstD {
						worst, worstD = i, d
					}
				}
				copy(centroids[j], z[worst])
				assign[worst] = j
				changed = true
				continue
			}
			for v := range centroids[j] {
				centroids[j][v] /= float64(counts[j])
			}
		}
		if !changed && it > 0 {
			break
		}
	}
	return centroids, assign
}

func sqDist(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return d
}

// payload is the persisted form of a DAL model.
type payload struct {
	Scale     scaler           `json:"scale"`
	Centroids [][]float64      `json:"centroids"`
	Locals    []*regress.Model `json:"locals"`
	Pooled    *regress.Model   `json:"pooled"`
}

// Load implements family.Family.
func (*Family) Load(raw json.RawMessage, numVars int) (family.Model, error) {
	var p payload
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("dal: decoding payload: %w", err)
	}
	if err := p.Pooled.Validate(numVars); err != nil {
		return nil, fmt.Errorf("dal: payload pooled model: %w", err)
	}
	if len(p.Scale.Means) != numVars || len(p.Scale.Stds) != numVars {
		return nil, fmt.Errorf("dal: payload scaler has %d variables, want %d", len(p.Scale.Means), numVars)
	}
	if len(p.Centroids) == 0 || len(p.Centroids) != len(p.Locals) {
		return nil, fmt.Errorf("dal: payload has %d centroids for %d local models",
			len(p.Centroids), len(p.Locals))
	}
	for j, c := range p.Centroids {
		if len(c) != numVars {
			return nil, fmt.Errorf("dal: centroid %d has %d variables, want %d", j, len(c), numVars)
		}
		if m := p.Locals[j]; m != nil {
			if err := m.Validate(numVars); err != nil {
				return nil, fmt.Errorf("dal: payload local model %d: %w", j, err)
			}
		}
	}
	return &Model{scale: p.Scale, centroids: p.Centroids, locals: p.Locals, pooled: p.Pooled}, nil
}

// Model is a fitted divide-and-learn model. Immutable and safe for
// concurrent use; the scratch pool only recycles predict buffers.
type Model struct {
	scale     scaler
	centroids [][]float64
	locals    []*regress.Model // nil entries dispatch to pooled
	pooled    *regress.Model
	scratch   sync.Pool // *dispatchScratch
}

// dispatchScratch holds the reusable predict buffers of one goroutine's pass
// through a DAL model: the standardized row, the per-row cluster assignment,
// the gather/scatter buffers grouping a batch by dispatch target, and the
// regression scratch shared by whichever local (or pooled) model answers.
type dispatchScratch struct {
	z      []float64
	assign []int
	sub    [][]float64
	idx    []int
	subOut []float64
	rs     regress.PredictScratch
}

func (s *dispatchScratch) ensure(numVars, n int) {
	if cap(s.z) < numVars {
		s.z = make([]float64, numVars)
	}
	s.z = s.z[:numVars]
	if cap(s.assign) < n {
		s.assign = make([]int, n)
		s.idx = make([]int, n)
		s.sub = make([][]float64, n)
		s.subOut = make([]float64, n)
	}
	s.assign = s.assign[:n]
	s.idx = s.idx[:n]
	s.sub = s.sub[:n]
	s.subOut = s.subOut[:n]
}

func (m *Model) getScratch() *dispatchScratch {
	if s, ok := m.scratch.Get().(*dispatchScratch); ok {
		return s
	}
	return &dispatchScratch{}
}

// nearest returns the index of the centroid closest to the standardized row
// (ties break on the lowest index, matching fit-time assignment).
func (m *Model) nearest(z []float64) int {
	best, bestD := 0, sqDist(z, m.centroids[0])
	for j := 1; j < len(m.centroids); j++ {
		if d := sqDist(z, m.centroids[j]); d < bestD {
			best, bestD = j, d
		}
	}
	return best
}

// PredictBatch implements family.Model: standardize each row, dispatch it to
// the nearest cluster's local model, and fall through to the pooled model
// for thin regions. Every row is assigned first, then each dispatch target
// (each fitted local model, plus the pooled fallback) answers its rows in one
// batched sweep, scattered back to the caller's slots. A row's target
// depends on that row alone, so its answer does not depend on the batch.
//
//hslint:hotpath
func (m *Model) PredictBatch(rows [][]float64, out []float64) {
	s := m.getScratch()
	s.ensure(len(m.scale.Means), len(rows))
	for i, raw := range rows {
		m.scale.apply(raw, s.z)
		s.assign[i] = m.nearest(s.z)
	}
	// j == -1 sweeps the pooled fallback (rows assigned to a nil local).
	for j := -1; j < len(m.locals); j++ {
		target := m.pooled
		if j >= 0 {
			if m.locals[j] == nil {
				continue
			}
			target = m.locals[j]
		}
		k := 0
		for i := range rows {
			a := s.assign[i]
			if (j >= 0 && a == j) || (j < 0 && m.locals[a] == nil) {
				s.sub[k] = rows[i]
				s.idx[k] = i
				k++
			}
		}
		if k == 0 {
			continue
		}
		target.PredictBatchWith(&s.rs, s.sub[:k], s.subOut[:k])
		for t := 0; t < k; t++ {
			out[s.idx[t]] = s.subOut[t]
		}
	}
	m.scratch.Put(s)
}

// Describe implements family.Model.
func (m *Model) Describe() family.Description {
	terms := len(m.pooled.Coef)
	fitted := 0
	for _, l := range m.locals {
		if l != nil {
			fitted++
			terms += len(l.Coef)
		}
	}
	specs := make([]string, 0, fitted)
	for j, l := range m.locals {
		if l != nil {
			specs = append(specs, fmt.Sprintf("c%d:%s", j, l.Spec.String()))
		}
	}
	sort.Strings(specs)
	return family.Description{
		Family: FamilyName,
		Spec:   fmt.Sprintf("k=%d {%s} pooled:%s", len(m.centroids), strings.Join(specs, "; "), m.pooled.Spec.String()),
		Terms:  terms,
		Detail: fmt.Sprintf("k=%d, %d local models, pooled fallback", len(m.centroids), fitted),
	}
}

// Payload implements family.Model.
func (m *Model) Payload() (json.RawMessage, error) {
	data, err := json.Marshal(payload{
		Scale:     m.scale,
		Centroids: m.centroids,
		Locals:    m.locals,
		Pooled:    m.pooled,
	})
	if err != nil {
		return nil, fmt.Errorf("dal: encoding payload: %w", err)
	}
	return data, nil
}
