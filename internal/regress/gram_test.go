package regress_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"hsmodel/internal/faultinject"
	"hsmodel/internal/linalg"
	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
)

// synthDataset builds a continuous, well-conditioned dataset: uniform
// positive variables and a strictly positive response with smooth nonlinear
// structure, so randomized specs fit on the Cholesky path.
func synthDataset(n, p int, seed uint64) *regress.Dataset {
	src := rng.New(seed)
	ds := &regress.Dataset{
		Names: make([]string, p),
		X:     linalg.NewMatrix(n, p),
		Y:     make([]float64, n),
	}
	for v := 0; v < p; v++ {
		ds.Names[v] = fmt.Sprintf("x%d", v)
	}
	for i := 0; i < n; i++ {
		row := ds.X.Row(i)
		for v := range row {
			row[v] = 0.5 + 2*src.Float64()
		}
		y := 1.0
		for v := range row {
			y += 0.3 * float64(v%3) * row[v] * row[v]
		}
		ds.Y[i] = y * (0.9 + 0.2*src.Float64())
	}
	return ds
}

// randomSpec draws a GA-like spec: random transform codes plus a few random
// interactions.
func randomSpec(p int, src *rng.Source) regress.Spec {
	spec := regress.Spec{Codes: make([]regress.TransformCode, p)}
	for v := range spec.Codes {
		spec.Codes[v] = regress.TransformCode(src.Intn(int(regress.NumTransformCodes)))
	}
	for k := src.Intn(4); k > 0; k-- {
		i, j := src.Intn(p), src.Intn(p)
		if i != j {
			spec.Interactions = append(spec.Interactions, regress.Interaction{I: i, J: j}.Canon())
		}
	}
	return spec
}

// evaluatorWeights mimics core's train/validation split: most rows weighted,
// a tail of held-out rows at zero.
func evaluatorWeights(n int, src *rng.Source) []float64 {
	w := make([]float64, n)
	for i := range w {
		if src.Float64() < 0.75 {
			w[i] = 2
		}
	}
	return w
}

// zeroCoefs counts the coefficients that are exactly 0: the design columns a
// fit eliminated as collinear.
func zeroCoefs(coef []float64) int {
	n := 0
	for _, c := range coef {
		if c == 0 {
			n++
		}
	}
	return n
}

func coefsMatch(a, b []float64, tol float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for j := range a {
		if math.Abs(a[j]-b[j]) > tol*(1+math.Abs(b[j])) {
			return j, false
		}
	}
	return -1, true
}

// TestGramQRParity is the property test of the PR: across randomized specs,
// weights, and response transforms, the Gram/Cholesky path must reproduce the
// pivoted-QR coefficients to within 1e-8, and must actually serve the bulk of
// the fits (no silent wholesale fallback).
func TestGramQRParity(t *testing.T) {
	const nSpecs = 60
	src := rng.New(11)
	for _, tc := range []struct {
		name string
		log  bool
		wts  bool
	}{
		{"plain", false, false},
		{"logresponse", true, false},
		{"weighted", false, true},
		{"log+weighted", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := synthDataset(400, 8, 101)
			fz, err := regress.NewFeaturizer(ds, true)
			if err != nil {
				t.Fatal(err)
			}
			opts := regress.Options{LogResponse: tc.log}
			if tc.wts {
				opts.Weights = evaluatorWeights(ds.NumRows(), src)
			}
			gc, err := regress.NewGramCache(fz, opts)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < nSpecs; k++ {
				spec := randomSpec(ds.NumVars(), src)
				gm, gerr := gc.Fit(spec)
				qm, qerr := fz.Fit(spec, opts)
				if (gerr == nil) != (qerr == nil) {
					t.Fatalf("spec %v: gram err %v, qr err %v", spec, gerr, qerr)
				}
				if gerr != nil {
					continue
				}
				if j, ok := coefsMatch(gm.Coef, qm.Coef, 1e-8); !ok {
					t.Errorf("spec %v: coef[%d] gram=%.12g qr=%.12g",
						spec, j, gm.Coef[j], qm.Coef[j])
				}
			}
			s := gc.Stats()
			t.Logf("gram=%d qr=%d hits=%d misses=%d", s.GramFits, s.QRFallbacks, s.EntryHits, s.EntryMisses)
			if total := s.GramFits + s.QRFallbacks; s.GramFits < total*3/4 {
				t.Errorf("gram path served %d of %d fits; want >= 3/4", s.GramFits, total)
			}
			if s.EntryHits == 0 || s.EntryMisses == 0 {
				t.Errorf("memo counters not moving: hits=%d misses=%d", s.EntryHits, s.EntryMisses)
			}
		})
	}
}

// TestGramPrunesExactCollinear forces exact collinearity (one variable an
// affine image of another, so their standardized columns are identical) and
// checks the Gram path serves the fit anyway by pruning the dependent column
// — the same span pivoted QR selects — with matching coefficients.
func TestGramPrunesExactCollinear(t *testing.T) {
	ds := synthDataset(200, 6, 7)
	for i := 0; i < ds.NumRows(); i++ {
		row := ds.X.Row(i)
		row[3] = 2*row[1] + 5 // z-standardization makes column 3 ≡ column 1
	}
	fz, err := regress.NewFeaturizer(ds, false)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := regress.NewGramCache(fz, regress.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := regress.Spec{Codes: make([]regress.TransformCode, 6)}
	spec.Codes[1] = regress.Linear
	spec.Codes[3] = regress.Linear
	spec.Codes[5] = regress.Quadratic
	gm, err := gc.Fit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := gc.Stats(); s.GramFits != 1 || s.QRFallbacks != 0 {
		t.Errorf("exact-collinear fit: gram=%d qr=%d, want 1/0", s.GramFits, s.QRFallbacks)
	}
	if z := zeroCoefs(gm.Coef); z != 1 {
		t.Fatalf("coefficients %v: %d exactly zero, want exactly one pruned column", gm.Coef, z)
	}
	qm, err := fz.Fit(spec, regress.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// QR pivoting may keep the *other* duplicate, so column-wise coefficients
	// can legitimately differ; the number eliminated, the fitted subspace —
	// and therefore every prediction — must not.
	if z := zeroCoefs(qm.Coef); z != 1 {
		t.Errorf("qr coefficients %v: %d exactly zero, want 1", qm.Coef, z)
	}
	gp, qp := gm.PredictAll(ds), qm.PredictAll(ds)
	for i := range gp {
		if math.Abs(gp[i]-qp[i]) > 1e-8*(1+math.Abs(qp[i])) {
			t.Fatalf("prediction %d: gram %.15g, qr %.15g", i, gp[i], qp[i])
		}
	}
}

// TestGramFallbackOnNearCollinear perturbs the duplicate column just enough
// to escape the exact-dependence pruning floor but not enough to be well
// conditioned: the condition guard must route the fit to QR, whose result is
// served bit-identically.
func TestGramFallbackOnNearCollinear(t *testing.T) {
	ds := synthDataset(200, 6, 7)
	src := rng.New(13)
	for i := 0; i < ds.NumRows(); i++ {
		row := ds.X.Row(i)
		row[3] = 2*row[1] + 5 + 1e-4*src.Float64() // gray zone: cond ≫ 1e7, pivot ≫ droptol
	}
	fz, err := regress.NewFeaturizer(ds, false)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := regress.NewGramCache(fz, regress.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := regress.Spec{Codes: make([]regress.TransformCode, 6)}
	spec.Codes[1] = regress.Linear
	spec.Codes[3] = regress.Linear
	gm, err := gc.Fit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := gc.Stats(); s.QRFallbacks != 1 || s.GramFits != 0 {
		t.Errorf("near-collinear fit: gram=%d qr=%d, want 0/1", s.GramFits, s.QRFallbacks)
	}
	qm, err := fz.Fit(spec, regress.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := coefsMatch(gm.Coef, qm.Coef, 0); !ok {
		t.Errorf("fallback coef[%d] = %g, want bit-identical %g", j, gm.Coef[j], qm.Coef[j])
	}
}

// TestGramRejectsPoisonedRows reuses the faultinject row poisoner: NaN
// profile rows must be rejected at featurization, before any cross-product
// can cache a poisoned value.
func TestGramRejectsPoisonedRows(t *testing.T) {
	ds := synthDataset(50, 5, 33)
	rows := make([][]float64, ds.NumRows())
	for i := range rows {
		rows[i] = ds.X.Row(i)
	}
	if n := faultinject.PoisonRows(rows, 10, 5); n == 0 {
		t.Fatal("poisoner touched no rows")
	}
	if _, err := regress.NewFeaturizer(ds, false); !errors.Is(err, regress.ErrBadInput) {
		t.Fatalf("featurizer accepted poisoned rows: err=%v", err)
	}
}

// TestGramConcurrentFits exercises the sharded memo and worker-pool fill
// under -race: concurrent fits of overlapping specs must produce exactly the
// coefficients a serial pass produces (memoized entries are deterministic
// regardless of which goroutine computes them).
func TestGramConcurrentFits(t *testing.T) {
	ds := synthDataset(300, 7, 55)
	fz, err := regress.NewFeaturizer(ds, true)
	if err != nil {
		t.Fatal(err)
	}
	opts := regress.Options{LogResponse: true}
	gc, err := regress.NewGramCache(fz, opts)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	specs := make([]regress.Spec, 40)
	for i := range specs {
		specs[i] = randomSpec(ds.NumVars(), src)
	}
	// Serial reference on a fresh cache.
	ref, err := regress.NewGramCache(fz, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(specs))
	for i, spec := range specs {
		if m, err := ref.Fit(spec); err == nil {
			want[i] = m.Coef
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += 8 {
				m, err := gc.Fit(specs[i])
				if err != nil {
					if want[i] != nil {
						errs[i] = err
					}
					continue
				}
				if j, ok := coefsMatch(m.Coef, want[i], 0); !ok {
					errs[i] = fmt.Errorf("coef[%d] diverged under concurrency", j)
				}
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("spec %d: %v", i, err)
		}
	}
}
