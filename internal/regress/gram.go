package regress

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hsmodel/internal/linalg"
)

// GramCache sits on top of a Featurizer and turns candidate-spec fitting
// from an O(n·p²) pivoted-QR solve per spec into an O(p³) normal-equation
// solve: because every genetic candidate draws its design columns from one
// shared pool (intercept, the cached per-(variable, transform) basis
// columns, and pairwise interaction products), the weighted cross-products
// ⟨cᵢ,cⱼ⟩ and ⟨cᵢ,y⟩ between those columns can be computed once per dataset
// version and shared by every chromosome that touches them. Fitting then
// gathers the spec's p×p sub-Gram matrix and solves the normal equations by
// Cholesky.
//
// Entries are memoized lazily under sharded locks, so the GA's concurrent
// fitness workers fill disjoint entries without contending on one mutex, and
// a fit that needs many cold entries fans the accumulation out across a
// worker pool. Per-fit scratch (the sub-Gram matrix, scale vector, and
// right-hand side) comes from a sync.Pool so steady-state fitting does not
// allocate proportionally to p².
//
// The normal equations square the design's condition number, so the Cholesky
// path is guarded: the sub-Gram is Jacobi-equilibrated, and if a pivot fails,
// the condition estimate exceeds gramMaxCond, or any coefficient comes out
// non-finite, the fit falls back to the Featurizer's pivoted-QR path —
// which also handles rank deficiency by dropping collinear columns — so
// coefficients never silently degrade. Stats reports how often each path ran.
//
// A GramCache is bound to one (dataset, Options) pair at construction: the
// response transform and observation weights are baked into the cached inner
// products. It is safe for concurrent use. Like the Featurizer it wraps, it
// must be discarded when the dataset changes (core.Trainer builds one per
// training run and drops it when the run returns).
type GramCache struct {
	fz   *Featurizer
	opts Options
	n    int // rows
	p    int // raw variables

	w        []float64 // effective observation weights; nil means uniform
	ty       []float64 // response with the LogResponse transform applied
	yLo, yHi float64   // prediction envelope, identical for every spec

	// mainIDs = 1 + 6p: column 0 is the intercept, then (v,k) basis columns.
	// Interaction products get ids mainIDs + pairIndex(i,j).
	mainIDs int
	numIDs  int
	ones    []float64

	prodMu sync.RWMutex
	prods  map[uint32][]float64 // pair index -> cached zᵢ·zⱼ column

	shards [gramShardCount]gramShard

	gramFits    atomic.Uint64
	qrFallbacks atomic.Uint64
	entryHits   atomic.Uint64
	entryMisses atomic.Uint64
}

const gramShardCount = 64

// gramMaxCond bounds the true condition number (λmax/λmin, estimated by
// norm bound plus inverse power iteration on the factor) of the equilibrated
// sub-Gram accepted by the Cholesky path; fits beyond it fall back to pivoted
// QR. With compensated Gram accumulation and one step of iterative
// refinement, 1e9 keeps normal-equation coefficients within ~1e-8 of the QR
// solution.
const gramMaxCond = 1e9

// gramShard is one lock stripe of the inner-product memo. Keys mixing both
// column ids spread adjacent entries across stripes, so workers filling one
// spec's sub-Gram rarely collide on a mutex.
type gramShard struct {
	mu sync.RWMutex
	m  map[uint64]float64
}

// GramStats counts how candidate fits were served and how the inner-product
// memo behaved. Counters are cumulative over the cache's lifetime.
type GramStats struct {
	GramFits    uint64 // fits solved on the Cholesky normal-equation path
	QRFallbacks uint64 // fits that fell back to the pivoted-QR path
	EntryHits   uint64 // sub-Gram entries served from the memo
	EntryMisses uint64 // sub-Gram entries computed (one data pass each)
}

// Stats returns a snapshot of the cache's counters.
func (g *GramCache) Stats() GramStats {
	return GramStats{
		GramFits:    g.gramFits.Load(),
		QRFallbacks: g.qrFallbacks.Load(),
		EntryHits:   g.entryHits.Load(),
		EntryMisses: g.entryMisses.Load(),
	}
}

// NewGramCache builds a Gram-cache fit layer over fz for the fixed fitting
// options opts. Input validation that fitDesign performs per fit — weight
// length, response positivity under LogResponse, the response Envelope —
// happens once, at construction, so NewGramCache fails exactly when every
// Featurizer.Fit of fz under opts would.
func NewGramCache(fz *Featurizer, opts Options) (*GramCache, error) {
	n, p := fz.NumRows(), fz.ds.NumVars()
	g := &GramCache{
		fz:      fz,
		opts:    opts,
		n:       n,
		p:       p,
		mainIDs: 1 + 6*p,
		prods:   make(map[uint32][]float64),
	}
	g.numIDs = g.mainIDs + p*(p-1)/2
	if g.numIDs >= 1<<31 {
		return nil, fmt.Errorf("%w: %d variables overflow gram column ids", ErrBadInput, p)
	}
	if opts.Weights != nil {
		if len(opts.Weights) != n {
			return nil, fmt.Errorf("%w: %d weights for %d rows", ErrBadInput, len(opts.Weights), n)
		}
		g.w = append([]float64(nil), opts.Weights...)
	}
	resp := fz.ds.Y
	g.ty = make([]float64, n)
	for i, v := range resp {
		if opts.LogResponse {
			if v <= 0 {
				return nil, fmt.Errorf("%w: non-positive response %g with LogResponse", ErrBadInput, v)
			}
			g.ty[i] = math.Log(v)
		} else {
			g.ty[i] = v
		}
	}
	var err error
	if g.yLo, g.yHi, err = Envelope(resp); err != nil {
		return nil, err
	}
	g.ones = make([]float64, n)
	for i := range g.ones {
		g.ones[i] = 1
	}
	return g, nil
}

// pairIndex maps a canonical interaction (i < j) to a dense index in
// [0, p(p-1)/2).
func (g *GramCache) pairIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*g.p - i*(i+1)/2 + (j - i - 1)
}

// colID assignment: 0 = intercept, 1+6v+k = basis column k of variable v,
// mainIDs+pairIndex = interaction product column.

// col returns the pooled column for id, materializing interaction products
// on first use.
func (g *GramCache) col(id int32) []float64 {
	switch {
	case id == 0:
		return g.ones
	case int(id) < g.mainIDs:
		v, k := (int(id)-1)/6, (int(id)-1)%6
		return g.fz.basis[v][k]
	default:
		return g.prodCol(uint32(int(id) - g.mainIDs))
	}
}

// prodCol returns (building and memoizing if needed) the interaction product
// column for a dense pair index.
func (g *GramCache) prodCol(pair uint32) []float64 {
	g.prodMu.RLock()
	c, ok := g.prods[pair]
	g.prodMu.RUnlock()
	if ok {
		return c
	}
	// Recover (i, j) from the dense index by scanning rows of the strictly
	// upper triangle; p is small so this is negligible next to the n-length
	// product below.
	i, rem := 0, int(pair)
	for rowLen := g.p - 1; rem >= rowLen; rowLen-- {
		rem -= rowLen
		i++
	}
	j := i + 1 + rem
	zi, zj := g.fz.basis[i][0], g.fz.basis[j][0]
	c = make([]float64, g.n)
	for r := range c {
		c[r] = zi[r] * zj[r]
	}
	g.prodMu.Lock()
	if prev, ok := g.prods[pair]; ok {
		c = prev // lost a benign race; keep the first column
	} else {
		g.prods[pair] = c
	}
	g.prodMu.Unlock()
	return c
}

// idsFor appends the column ids of spec's design, in exact design-column
// order (intercept, per-variable basis columns, then interactions).
func (g *GramCache) idsFor(spec Spec, ids []int32) []int32 {
	ids = append(ids[:0], 0)
	for v, code := range spec.Codes {
		if code == Excluded {
			continue
		}
		base := int32(1 + 6*v)
		ids = append(ids, base)
		if code >= Quadratic {
			ids = append(ids, base+1)
		}
		if code >= Cubic {
			ids = append(ids, base+2)
		}
		if code == Spline3 {
			ids = append(ids, base+3, base+4, base+5)
		}
	}
	for _, in := range spec.Interactions {
		ids = append(ids, int32(g.mainIDs+g.pairIndex(in.I, in.J)))
	}
	return ids
}

// Inner-product memoization. Keys pack the canonical (low id, high id) pair;
// the right-hand-side products ⟨cᵢ,y⟩ use the all-ones high half, which no
// column pair can produce.

const gramRHSKey = uint64(1)<<32 - 1

func gramKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func (g *GramCache) shardFor(key uint64) *gramShard {
	h := key * 0x9E3779B97F4A7C15
	return &g.shards[h>>58] // top 6 bits: gramShardCount = 64
}

// lookup probes the memo without computing.
func (g *GramCache) lookup(key uint64) (float64, bool) {
	sh := g.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

func (g *GramCache) store(key uint64, v float64) {
	sh := g.shardFor(key)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64]float64)
	}
	sh.m[key] = v
	sh.mu.Unlock()
}

// dot computes the weighted inner product of two pooled columns (or of a
// column and the transformed response for the RHS sentinel).
func (g *GramCache) dot(key uint64) float64 {
	a := g.col(int32(key >> 32))
	var b []float64
	if key&gramRHSKey == gramRHSKey {
		b = g.ty
	} else {
		b = g.col(int32(uint32(key)))
	}
	// Kahan-compensated accumulation: cached cross-products are the data the
	// normal equations see, so their rounding error multiplies by κ(G) in the
	// solved coefficients. Compensation shrinks the summation error from
	// O(n·ε) to O(ε), which is what lets gramMaxCond sit at 1e9 while keeping
	// the ~1e-8 coefficient-parity contract with the QR path.
	var s, comp float64
	if g.w == nil {
		for r, av := range a {
			t := av*b[r] - comp
			sum := s + t
			comp = (sum - s) - t
			s = sum
		}
	} else {
		for r, av := range a {
			t := g.w[r]*av*b[r] - comp
			sum := s + t
			comp = (sum - s) - t
			s = sum
		}
	}
	return s
}

// gramScratch is the reusable per-fit workspace.
type gramScratch struct {
	ids   []int32
	sub   *linalg.Matrix // p×p equilibrated sub-Gram
	rhs   []float64
	scale []float64
	gcopy []float64 // equilibrated sub-Gram preserved across Factor, for refinement
	rhsk  []float64 // compacted equilibrated right-hand side
	resid []float64 // refinement residual / correction
	miss  []uint64  // keys of cold entries
	missP []int32   // packed (row<<16|col) positions of cold entries
	chol  linalg.Cholesky
}

var gramScratchPool = sync.Pool{New: func() any { return new(gramScratch) }}

func (sc *gramScratch) sized(p int) {
	if sc.sub == nil || sc.sub.Rows < p {
		sc.sub = linalg.NewMatrix(p, p)
		sc.rhs = make([]float64, p)
		sc.scale = make([]float64, p)
		sc.gcopy = make([]float64, p*p)
		sc.rhsk = make([]float64, p)
		sc.resid = make([]float64, p)
	}
}

// subMatrix returns a p×p matrix view over the scratch storage.
func (sc *gramScratch) subMatrix(p int) *linalg.Matrix {
	return &linalg.Matrix{Rows: p, Cols: p, Data: sc.sub.Data[:p*p]}
}

// Fit fits spec by gathering its sub-Gram system and solving the normal
// equations via Cholesky; ill-conditioned or rank-deficient systems fall
// back to the Featurizer's pivoted-QR path (same Options), so the result is
// always usable. On the Cholesky path the fitted Model is numerically — not
// bit — identical to Featurizer.Fit: coefficients agree to ~gramMaxCond·ε.
//
// Like Featurizer.Fit, Fit is a panic boundary: panics surface as errors
// wrapping ErrBadInput.
func (g *GramCache) Fit(spec Spec) (m *Model, err error) {
	defer func() {
		if r := recover(); r != nil {
			m = nil
			err = fmt.Errorf("%w: panic during gram fit: %v", ErrBadInput, r)
		}
	}()
	if err := spec.Validate(g.p); err != nil {
		return nil, err
	}
	sc := gramScratchPool.Get().(*gramScratch)
	defer gramScratchPool.Put(sc)
	sc.ids = g.idsFor(spec, sc.ids)
	p := len(sc.ids)
	if g.n < p {
		return nil, fmt.Errorf("%w: %d rows, %d columns", ErrTooFewRows, g.n, p)
	}
	sc.sized(p)
	sub := sc.subMatrix(p)
	coef, ok := g.solveNormal(sc, sub, p)
	if !ok {
		g.qrFallbacks.Add(1)
		return g.fz.Fit(spec, g.opts)
	}
	g.gramFits.Add(1)
	return &Model{
		Spec:        spec,
		Prep:        g.fz.prep,
		Coef:        coef,
		LogResponse: g.opts.LogResponse,
		YLo:         g.yLo,
		YHi:         g.yHi,
	}, nil
}

// solveNormal gathers the sub-Gram system for sc.ids into sub/sc.rhs and
// solves it. Exactly-zero columns — dead spline cubes whose knot sits at a
// discrete variable's maximum level, or constant variables — are excluded
// from the solve with a zero coefficient, exactly as the pivoted QR drops
// zero-norm columns, so the two paths agree on this (common) degeneracy.
// ok is false when the Cholesky guard rejects the remaining system.
func (g *GramCache) solveNormal(sc *gramScratch, sub *linalg.Matrix, p int) (coef []float64, ok bool) {
	ids := sc.ids
	sc.miss = sc.miss[:0]
	sc.missP = sc.missP[:0]
	for r := 0; r < p; r++ {
		for c := r; c < p; c++ {
			key := gramKey(ids[r], ids[c])
			if v, ok := g.lookup(key); ok {
				sub.Set(r, c, v)
				sub.Set(c, r, v)
			} else {
				sc.miss = append(sc.miss, key)
				sc.missP = append(sc.missP, int32(r)<<16|int32(c))
			}
		}
		rkey := uint64(uint32(ids[r]))<<32 | gramRHSKey
		if v, ok := g.lookup(rkey); ok {
			sc.rhs[r] = v
		} else {
			sc.miss = append(sc.miss, rkey)
			sc.missP = append(sc.missP, int32(r)<<16|int32(1<<15-1))
		}
	}
	g.entryHits.Add(uint64(p*(p+1)/2 + p - len(sc.miss)))
	g.entryMisses.Add(uint64(len(sc.miss)))
	g.fillMissing(sc, sub, p)

	// Jacobi equilibration: scale to a unit diagonal so the pruning tolerance
	// and condition estimate are meaningful and the solve is as accurate as
	// the data allows. All-zero weighted columns (squared norm exactly 0) keep
	// scale 1; FactorPruned removes them below.
	for j := 0; j < p; j++ {
		d := sub.At(j, j)
		if d < 0 || math.IsInf(d, 0) || math.IsNaN(d) {
			return nil, false // weighted squared norms can't be negative
		}
		if d > 0 {
			sc.scale[j] = 1 / math.Sqrt(d)
		} else {
			sc.scale[j] = 1
		}
	}
	for r := 0; r < p; r++ {
		row := sub.Row(r)
		sr := sc.scale[r]
		for c := 0; c < p; c++ {
			row[c] *= sr * sc.scale[c]
		}
	}
	// Prune numerically exact dependents — dead spline cubes whose knot sits
	// at a discrete variable's maximum level, or power/spline blocks of a
	// variable with fewer distinct levels than basis columns — exactly the
	// columns pivoted QR would drop as zero-norm leftovers. Directions that
	// are merely ill-conditioned survive pruning and are then judged by the
	// condition guard, so the gray zone still falls back to QR.
	copy(sc.gcopy[:p*p], sub.Data[:p*p]) // Factor consumes sub; keep G for refinement
	kept, err := sc.chol.FactorPruned(sub, gramDropTol)
	if err != nil {
		return nil, false
	}
	if sc.chol.ConditionEstimate() > gramMaxCond {
		return nil, false // diagonal ratio lower-bounds κ: cheap first reject
	}
	q := len(kept)
	// Tight condition check: the diagonal ratio can undershoot the true κ by
	// orders of magnitude, and the normal equations pay κ(D)² — accepting a
	// fit at true κ ≈ 1e9 silently breaks the ~1e-8 parity contract. Bound
	// λmax by the largest row 1-norm of the kept equilibrated sub-Gram and
	// estimate λmin by inverse power iteration on the factor.
	lambdaMax := 0.0
	for _, ki := range kept {
		grow := sc.gcopy[ki*p : ki*p+p]
		var s float64
		for _, kj := range kept {
			s += math.Abs(grow[kj])
		}
		if s > lambdaMax {
			lambdaMax = s
		}
	}
	lambdaMin := sc.chol.SmallestEigenEstimate(sc.resid[:q])
	if lambdaMin <= 0 || lambdaMax > gramMaxCond*lambdaMin {
		return nil, false
	}
	rhsk := sc.rhsk[:q]
	for i, j := range kept {
		rhsk[i] = sc.rhs[j] * sc.scale[j]
	}
	u := sc.rhs[:q]
	copy(u, rhsk)
	if err := sc.chol.SolveInPlace(u); err != nil {
		return nil, false
	}
	// One step of iterative refinement in the equilibrated space: the normal
	// equations pay a squared condition number, and the diagonal-ratio guard
	// only lower-bounds it, so near-limit fits can drift past the ~1e-8
	// parity contract. The O(q²) residual correction pulls them back to
	// working precision for the cost of one matrix-vector product.
	resid := sc.resid[:q]
	for i, ki := range kept {
		grow := sc.gcopy[ki*p : ki*p+p]
		s := rhsk[i]
		for j, kj := range kept {
			s -= grow[kj] * u[j]
		}
		resid[i] = s
	}
	if err := sc.chol.SolveInPlace(resid); err != nil {
		return nil, false
	}
	for i := range u {
		u[i] += resid[i]
	}
	coef = make([]float64, p)
	for i, j := range kept {
		v := u[i] * sc.scale[j]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
		coef[j] = v
	}
	return coef, true
}

// gramDropTol is FactorPruned's pivot floor on the equilibrated (unit
// diagonal) sub-Gram: pivots at or below it are indistinguishable from
// rounding noise of an exact dependency (~p·ε ≈ 1e-14), while any direction
// a fit is allowed to resolve must carry λ ≥ 1/gramMaxCond = 1e-9, three
// decades above. Pivots in between survive pruning and are rejected by the
// condition guard, so the gray zone falls back to QR rather than being
// silently resolved by either path.
const gramDropTol = 1e-12

// fillMissing computes the cold entries of one fit, fanning out across a
// worker pool bounded by GOMAXPROCS when the batch is large (a cold cache on
// a fresh dataset version). Workers write disjoint memo keys and disjoint
// sub-matrix cells, so the only synchronization is the sharded store.
func (g *GramCache) fillMissing(sc *gramScratch, sub *linalg.Matrix, p int) {
	miss, missP := sc.miss, sc.missP
	if len(miss) == 0 {
		return
	}
	compute := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			key := miss[k]
			v := g.dot(key)
			g.store(key, v)
			r, c := int(missP[k]>>16), int(missP[k]&0xFFFF)
			if c == 1<<15-1 {
				sc.rhs[r] = v
			} else {
				sub.Set(r, c, v)
				sub.Set(c, r, v)
			}
		}
	}
	const minPerWorker = 8
	workers := min(runtime.GOMAXPROCS(0), len(miss)/minPerWorker)
	if workers <= 1 {
		compute(0, len(miss))
		return
	}
	var wg sync.WaitGroup
	chunk := (len(miss) + workers - 1) / workers
	for lo := 0; lo < len(miss); lo += chunk {
		hi := lo + chunk
		if hi > len(miss) {
			hi = len(miss)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			compute(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
