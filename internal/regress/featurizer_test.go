package regress

import (
	"errors"
	"math"
	"testing"

	"hsmodel/internal/linalg"
	"hsmodel/internal/rng"
)

// featurizerDataset builds a deterministic long-tailed dataset exercising
// every transform: positive skewed variables (so stabilization picks powers
// other than 1) and a positive response.
func featurizerDataset(rows, vars int, seed uint64) *Dataset {
	src := rng.New(seed)
	names := make([]string, vars)
	for v := range names {
		names[v] = "v" + string(rune('a'+v))
	}
	ds := &Dataset{
		Names: names,
		X:     linalg.NewMatrix(rows, vars),
		Y:     make([]float64, rows),
		Group: make([]int, rows),
	}
	for i := 0; i < rows; i++ {
		var y float64 = 0.5
		for v := 0; v < vars; v++ {
			x := math.Exp(3 * src.Float64()) // long tail
			ds.X.Row(i)[v] = x
			y += 0.1 * math.Sqrt(x) * float64(v+1)
		}
		ds.Y[i] = y + 0.05*src.Float64()
		ds.Group[i] = i % 3
	}
	return ds
}

// fixedSpec covers every transform code plus interactions.
func fixedSpec(vars int) Spec {
	spec := Spec{Codes: make([]TransformCode, vars)}
	codes := []TransformCode{Linear, Quadratic, Cubic, Spline3, Excluded}
	for v := range spec.Codes {
		spec.Codes[v] = codes[v%len(codes)]
	}
	if vars >= 4 {
		spec.Interactions = []Interaction{{I: 0, J: 1}, {I: 2, J: 3}}
	}
	return spec
}

// naiveDesign expands every raw row of ds through the predict path's
// fillDesignRow: the design a served model sees for the same rows.
func naiveDesign(prep *Prep, spec Spec, ds *Dataset) *linalg.Matrix {
	m := linalg.NewMatrix(ds.NumRows(), numDesignColumns(spec))
	z := make([]float64, prep.NumVars())
	for i := 0; i < ds.NumRows(); i++ {
		prep.fillDesignRow(spec, ds.X.Row(i), z, m.Row(i))
	}
	return m
}

// naiveFit fits spec on the predict path's design of ds under prep.
func naiveFit(prep *Prep, spec Spec, ds *Dataset, opts Options) (*Model, error) {
	return fitDesign(spec, prep, naiveDesign(prep, spec, ds), ds.Y, opts)
}

// TestFeaturizerDesignMatchesNaive: the cached-basis design must be
// bit-identical to expanding each raw row on the predict path.
func TestFeaturizerDesignMatchesNaive(t *testing.T) {
	ds := featurizerDataset(60, 6, 11)
	fz, err := NewFeaturizer(ds, true)
	if err != nil {
		t.Fatal(err)
	}
	spec := fixedSpec(6)
	cached, err := fz.Design(spec)
	if err != nil {
		t.Fatal(err)
	}
	naive := naiveDesign(fz.Prep(), spec, ds)
	if cached.Rows != naive.Rows || cached.Cols != naive.Cols {
		t.Fatalf("design shape %dx%d, want %dx%d", cached.Rows, cached.Cols, naive.Rows, naive.Cols)
	}
	for i, v := range cached.Data {
		if math.Float64bits(v) != math.Float64bits(naive.Data[i]) {
			t.Fatalf("design[%d] = %v, naive %v", i, v, naive.Data[i])
		}
	}
}

// TestFeaturizerFitParity: cached-basis fitting must produce identical
// coefficients to a QR fit of the predict path's design on a fixed-seed spec
// (the acceptance criterion for the featurize layer).
func TestFeaturizerFitParity(t *testing.T) {
	ds := featurizerDataset(80, 6, 42)
	fz, err := NewFeaturizer(ds, true)
	if err != nil {
		t.Fatal(err)
	}
	spec := fixedSpec(6)
	weights := make([]float64, ds.NumRows())
	for i := range weights {
		weights[i] = 1 + float64(i%3) // non-uniform, exercises the weighted path
	}
	for _, opts := range []Options{
		{LogResponse: true},
		{LogResponse: false},
		{LogResponse: true, Weights: weights},
	} {
		cached, err := fz.Fit(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := naiveFit(fz.Prep(), spec, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(cached.Coef) != len(naive.Coef) {
			t.Fatalf("%d coefficients, want %d", len(cached.Coef), len(naive.Coef))
		}
		for j := range cached.Coef {
			if math.Float64bits(cached.Coef[j]) != math.Float64bits(naive.Coef[j]) {
				t.Errorf("opts %+v: coef[%d] = %v, naive %v", opts, j, cached.Coef[j], naive.Coef[j])
			}
		}
		if math.Float64bits(cached.YLo) != math.Float64bits(naive.YLo) || math.Float64bits(cached.YHi) != math.Float64bits(naive.YHi) {
			t.Errorf("fit metadata differs: %+v vs %+v", cached, naive)
		}
		// Predictions through both models must agree on the training rows.
		cp, np := cached.PredictAll(ds), naive.PredictAll(ds)
		for i := 0; i < ds.NumRows(); i += 7 {
			if c, n := cp[i], np[i]; math.Float64bits(c) != math.Float64bits(n) {
				t.Errorf("prediction row %d: %v vs %v", i, c, n)
			}
		}
	}
}

// TestFeaturizerDesignRows: subset gathering must match the full design.
func TestFeaturizerDesignRows(t *testing.T) {
	ds := featurizerDataset(40, 5, 3)
	fz, err := NewFeaturizer(ds, true)
	if err != nil {
		t.Fatal(err)
	}
	spec := fixedSpec(5)
	full, err := fz.Design(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{7, 0, 33, 12}
	sub := fz.DesignRows(spec, rows)
	if sub.Rows != len(rows) || sub.Cols != full.Cols {
		t.Fatalf("subset shape %dx%d", sub.Rows, sub.Cols)
	}
	for i, r := range rows {
		for j := 0; j < full.Cols; j++ {
			if math.Float64bits(sub.Row(i)[j]) != math.Float64bits(full.Row(r)[j]) {
				t.Fatalf("subset row %d col %d = %v, want %v", i, j, sub.Row(i)[j], full.Row(r)[j])
			}
		}
	}
	// PredictDesign over the gathered rows must match raw-row prediction.
	m, err := fz.Fit(spec, Options{LogResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(rows))
	m.PredictDesign(sub, got)
	all := m.PredictAll(ds)
	for i, r := range rows {
		if want := all[r]; math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("row %d: PredictDesign %v, PredictAll %v", r, got[i], want)
		}
	}
}

// TestFeaturizerRejectsBadInput: non-finite rows and shape mismatches are
// refused at construction, once, instead of on every fit.
func TestFeaturizerRejectsBadInput(t *testing.T) {
	ds := featurizerDataset(30, 4, 9)
	ds.X.Row(12)[2] = math.NaN()
	if _, err := NewFeaturizer(ds, true); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN dataset: err = %v, want ErrBadInput", err)
	}

	good := featurizerDataset(30, 4, 9)
	other := featurizerDataset(30, 5, 9)
	prep := Prepare(other, true)
	if _, err := FeaturizeWith(prep, good); !errors.Is(err, ErrBadInput) {
		t.Errorf("mismatched prep: err = %v, want ErrBadInput", err)
	}

	fz, err := NewFeaturizer(good, true)
	if err != nil {
		t.Fatal(err)
	}
	bad := Spec{Codes: make([]TransformCode, 99)}
	if _, err := fz.Design(bad); err == nil {
		t.Error("invalid spec accepted by Design")
	}
	if _, err := fz.Fit(bad, Options{}); err == nil {
		t.Error("invalid spec accepted by Fit")
	}
}

// TestFeaturizeWithSharesPrep: preprocessing learned on a superset must be
// usable on a subset (the per-application weighted-fit pattern).
func TestFeaturizeWithSharesPrep(t *testing.T) {
	ds := featurizerDataset(50, 4, 21)
	prep := Prepare(ds, true)
	var rows []int
	for i := 1; i < 50; i += 2 {
		rows = append(rows, i)
	}
	sub := ds.Subset(rows)
	fz, err := FeaturizeWith(prep, sub)
	if err != nil {
		t.Fatal(err)
	}
	if fz.Prep() != prep {
		t.Error("featurizer must share the supplied prep")
	}
	spec := fixedSpec(4)
	cached, err := fz.Fit(spec, Options{LogResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := naiveFit(prep, spec, sub, Options{LogResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	for j := range cached.Coef {
		if math.Float64bits(cached.Coef[j]) != math.Float64bits(naive.Coef[j]) {
			t.Fatalf("coef[%d] = %v, want %v", j, cached.Coef[j], naive.Coef[j])
		}
	}
}
