package regress

import (
	"errors"
	"math"
	"testing"

	"hsmodel/internal/linalg"
	"hsmodel/internal/rng"
)

// mkDataset builds a dataset from a generator function y = f(x) over random
// raw variables.
func mkDataset(n, p int, seed uint64, f func(x []float64) float64) *Dataset {
	src := rng.New(seed)
	names := make([]string, p)
	for i := range names {
		names[i] = "v" + string(rune('a'+i))
	}
	ds := &Dataset{Names: names, X: linalg.NewMatrix(n, p), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		row := ds.X.Row(i)
		for j := range row {
			row[j] = src.Float64()*4 + 0.5
		}
		ds.Y[i] = f(row)
	}
	return ds
}

// fitOn fits spec to ds under unstabilized preprocessing learned from ds
// itself.
func fitOn(spec Spec, ds *Dataset, opts Options) (*Model, error) {
	fz, err := NewFeaturizer(ds, false)
	if err != nil {
		return nil, err
	}
	return fz.Fit(spec, opts)
}

func linSpec(p int, codes ...TransformCode) Spec {
	s := Spec{Codes: make([]TransformCode, p)}
	copy(s.Codes, codes)
	return s
}

func TestSpecValidate(t *testing.T) {
	s := linSpec(3, Linear, Excluded, Spline3)
	if err := s.Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(2); err == nil {
		t.Error("wrong variable count should fail")
	}
	bad := Spec{Codes: []TransformCode{99}}
	if err := bad.Validate(1); err == nil {
		t.Error("invalid code should fail")
	}
	badInt := Spec{Codes: []TransformCode{Linear, Linear}, Interactions: []Interaction{{0, 0}}}
	if err := badInt.Validate(2); err == nil {
		t.Error("self-interaction should fail")
	}
}

// TestModelValidate: a fitted model validates for its own variable count;
// one that disagrees with it, or whose coefficients do not match its spec's
// design width or are not finite, does not.
func TestModelValidate(t *testing.T) {
	ds := mkDataset(80, 3, 5, func(x []float64) float64 { return 1 + x[0] + x[1]*x[2] })
	spec := linSpec(3, Linear, Spline3, Quadratic)
	spec.Interactions = []Interaction{{1, 2}}
	fit, err := fitOn(spec, ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fit.Validate(3); err != nil {
		t.Fatalf("fitted model: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(m *Model)
	}{
		{"other variable count", nil},
		{"short coefficients", func(m *Model) { m.Coef = m.Coef[:len(m.Coef)-1] }},
		{"NaN coefficient", func(m *Model) { m.Coef[2] = math.NaN() }},
		{"infinite coefficient", func(m *Model) { m.Coef[0] = math.Inf(-1) }},
		{"short powers", func(m *Model) { m.Prep.Powers = m.Prep.Powers[:2] }},
		{"no clamp range", func(m *Model) { m.Prep.ZLo, m.Prep.ZHi = nil, nil }},
		{"no preprocessing", func(m *Model) { m.Prep = nil }},
		{"empty envelope", func(m *Model) { m.YLo, m.YHi = 0, 0 }},
		{"inverted envelope", func(m *Model) { m.YLo, m.YHi = m.YHi, m.YLo }},
		{"NaN envelope", func(m *Model) { m.YLo = math.NaN() }},
		{"unbounded envelope", func(m *Model) { m.YHi = math.Inf(1) }},
	} {
		m := *fit
		prep := *fit.Prep
		m.Prep = &prep
		m.Coef = append([]float64(nil), fit.Coef...)
		numVars := 3
		if tc.mutate == nil {
			numVars = 4
		} else {
			tc.mutate(&m)
		}
		if err := m.Validate(numVars); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	var none *Model
	if err := none.Validate(3); err == nil {
		t.Error("nil model validated")
	}
}

func TestSpecCloneIndependence(t *testing.T) {
	s := Spec{Codes: []TransformCode{Linear}, Interactions: []Interaction{{0, 1}}}
	c := s.Clone()
	c.Codes[0] = Cubic
	c.Interactions[0] = Interaction{1, 2}
	if s.Codes[0] != Linear || s.Interactions[0] != (Interaction{0, 1}) {
		t.Error("Clone shares storage")
	}
}

func TestInteractionCanon(t *testing.T) {
	if (Interaction{3, 1}).Canon() != (Interaction{1, 3}) {
		t.Error("Canon should order endpoints")
	}
	if (Interaction{1, 3}).Canon() != (Interaction{1, 3}) {
		t.Error("Canon should be idempotent")
	}
}

func TestFitRecoversLinearModel(t *testing.T) {
	// y = 3 + 2*x0 - x1, exact: predictions must match to precision.
	ds := mkDataset(100, 2, 41, func(x []float64) float64 { return 3 + 2*x[0] - x[1] })
	m, err := fitOn(linSpec(2, Linear, Linear), ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pred := range m.PredictAll(ds) {
		if math.Abs(pred-ds.Y[i]) > 1e-8 {
			t.Fatalf("row %d: pred %v, want %v", i, pred, ds.Y[i])
		}
	}
}

func TestQuadraticBeatsLinearOnCurvedData(t *testing.T) {
	ds := mkDataset(200, 1, 42, func(x []float64) float64 { return 1 + x[0]*x[0] })
	lin, err := fitOn(linSpec(1, Linear), ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	quad, err := fitOn(linSpec(1, Quadratic), ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if quad.Evaluate(ds).MedAPE >= lin.Evaluate(ds).MedAPE {
		t.Error("quadratic transform should fit curved data better")
	}
	if quad.Evaluate(ds).MedAPE > 1e-6 {
		t.Error("quadratic fit of quadratic data should be near-exact")
	}
}

func TestSplineCapturesPiecewiseTrend(t *testing.T) {
	// Hinged function: flat then steep — cubic splines with knots should
	// beat a plain cubic.
	ds := mkDataset(300, 1, 43, func(x []float64) float64 {
		if x[0] < 2.5 {
			return 5
		}
		return 5 + 8*(x[0]-2.5)
	})
	cubic, err := fitOn(linSpec(1, Cubic), ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spline, err := fitOn(linSpec(1, Spline3), ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if spline.Evaluate(ds).MeanAPE >= cubic.Evaluate(ds).MeanAPE {
		t.Error("spline should fit hinged data better than cubic")
	}
}

func TestInteractionRecovery(t *testing.T) {
	// y depends only on the product x0*x1: without the interaction the fit
	// is poor, with it near-exact.
	ds := mkDataset(150, 2, 44, func(x []float64) float64 { return 2 + 3*x[0]*x[1] })
	mains, err := fitOn(linSpec(2, Linear, Linear), ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withInt := linSpec(2, Linear, Linear)
	withInt.Interactions = []Interaction{{0, 1}}
	inter, err := fitOn(withInt, ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inter.Evaluate(ds).MedAPE >= mains.Evaluate(ds).MedAPE {
		t.Error("interaction term should improve fit of multiplicative data")
	}
	if inter.Evaluate(ds).MedAPE > 1e-6 {
		t.Errorf("interaction fit error %v, want ~0", inter.Evaluate(ds).MedAPE)
	}
}

func TestCollinearColumnDropped(t *testing.T) {
	// Variable 1 duplicates variable 0 (the paper's temporal/spatial
	// locality example): the fit must succeed and eliminate one duplicate
	// with a coefficient of exactly 0.
	src := rng.New(45)
	ds := &Dataset{
		Names: []string{"a", "dup"},
		X:     linalg.NewMatrix(80, 2),
		Y:     make([]float64, 80),
	}
	for i := 0; i < 80; i++ {
		v := src.Float64() * 10
		ds.X.Set(i, 0, v)
		ds.X.Set(i, 1, v)
		ds.Y[i] = 1 + 2*v
	}
	m, err := fitOn(linSpec(2, Linear, Linear), ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if (m.Coef[1] == 0) == (m.Coef[2] == 0) {
		t.Errorf("coefficients %v: want exactly one duplicate column zeroed as collinear", m.Coef)
	}
	if met := m.Evaluate(ds); met.MedAPE > 1e-8 {
		t.Errorf("fit after collinearity drop inaccurate: %v", met)
	}
}

func TestLogResponse(t *testing.T) {
	// Multiplicative data: log response makes it exactly linear.
	ds := mkDataset(100, 1, 46, func(x []float64) float64 { return math.Exp(1 + 0.5*x[0]) })
	m, err := fitOn(linSpec(1, Linear), ds, Options{LogResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	if met := m.Evaluate(ds); met.MedAPE > 1e-8 {
		t.Errorf("log-response fit error %v", met.MedAPE)
	}
	if !m.LogResponse {
		t.Error("model must record its response transform")
	}
	// Non-positive responses must be rejected under LogResponse.
	bad := mkDataset(10, 1, 47, func(x []float64) float64 { return 0 })
	if _, err := fitOn(linSpec(1, Linear), bad, Options{LogResponse: true}); err == nil {
		t.Error("zero response with LogResponse should fail")
	}
}

// TestNegativeResponseUnclamped: the envelope widens away from zero on each
// side, so a LogResponse: false fit of an exactly linear, all-negative
// response predicts every training row, the extremes included, unclamped,
// through Featurizer.Fit and the Gram path alike. An all-zero response has
// no envelope to widen and fails both with ErrBadInput.
func TestNegativeResponseUnclamped(t *testing.T) {
	ds := mkDataset(100, 2, 48, func(x []float64) float64 { return 1 - 2*x[0] - 3*x[1] })
	fz, err := NewFeaturizer(ds, false)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := NewGramCache(fz, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := linSpec(2, Linear, Linear)
	qr, err := fz.Fit(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gram, err := gc.Fit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Model{"qr": qr, "gram": gram} {
		for i, pred := range m.PredictAll(ds) {
			if math.Abs(pred-ds.Y[i]) > 1e-8 {
				t.Fatalf("%s row %d: pred %v, want %v (envelope [%v, %v])", name, i, pred, ds.Y[i], m.YLo, m.YHi)
			}
		}
	}

	zero := mkDataset(20, 1, 49, func(x []float64) float64 { return 0 })
	zfz, err := NewFeaturizer(zero, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zfz.Fit(linSpec(1, Linear), Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("all-zero response fit: %v, want ErrBadInput", err)
	}
	if _, err := NewGramCache(zfz, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("all-zero response Gram cache: %v, want ErrBadInput", err)
	}
}

func TestZeroWeightExcludesRow(t *testing.T) {
	// Two populations; rows of the second get weight 0 and must not
	// influence the fit.
	src := rng.New(48)
	n := 60
	ds := &Dataset{Names: []string{"x"}, X: linalg.NewMatrix(2*n, 1), Y: make([]float64, 2*n)}
	w := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		v := src.Float64() * 5
		ds.X.Set(i, 0, v)
		ds.Y[i] = 2 * v
		w[i] = 1
		ds.X.Set(n+i, 0, v)
		ds.Y[n+i] = -17 * v // contaminated rows
		w[n+i] = 0
	}
	m, err := fitOn(linSpec(1, Linear), ds, Options{Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictAll(ds)
	for i := 0; i < n; i++ {
		if math.Abs(pred[i]-ds.Y[i]) > 1e-8 {
			t.Fatal("zero-weighted rows leaked into the fit")
		}
	}
}

func TestTooFewRows(t *testing.T) {
	ds := mkDataset(3, 2, 49, func(x []float64) float64 { return x[0] })
	spec := linSpec(2, Spline3, Spline3) // 13 columns > 3 rows
	if _, err := fitOn(spec, ds, Options{}); err == nil {
		t.Error("fit with fewer rows than columns should fail")
	}
}

func TestPrepStabilization(t *testing.T) {
	// A long-tailed variable gets power < 1 when stabilization is on.
	src := rng.New(50)
	ds := &Dataset{Names: []string{"tail"}, X: linalg.NewMatrix(500, 1), Y: make([]float64, 500)}
	for i := 0; i < 500; i++ {
		v := src.LogNormal(3, 1.5)
		ds.X.Set(i, 0, v)
		ds.Y[i] = v
	}
	on := Prepare(ds, true)
	off := Prepare(ds, false)
	if on.Powers[0] >= 1 {
		t.Errorf("stabilized power %v, want < 1", on.Powers[0])
	}
	if off.Powers[0] != 1 {
		t.Errorf("unstabilized power %v, want 1", off.Powers[0])
	}
}

func TestMetricsAssess(t *testing.T) {
	met := Assess([]float64{11, 22, 33}, []float64{10, 20, 30})
	if math.Abs(met.MedAPE-0.1) > 1e-12 {
		t.Errorf("medAPE %v", met.MedAPE)
	}
	if met.Pearson < 0.999 {
		t.Errorf("Pearson %v", met.Pearson)
	}
	if met.N != 3 {
		t.Errorf("N = %d", met.N)
	}
	if met.String() == "" {
		t.Error("metrics should render")
	}
}

func TestDatasetSubsetAppend(t *testing.T) {
	ds := mkDataset(10, 2, 51, func(x []float64) float64 { return x[0] })
	ds.Group = make([]int, 10)
	for i := range ds.Group {
		ds.Group[i] = i % 3
	}
	sub := ds.Subset([]int{1, 3, 5})
	if sub.NumRows() != 3 || math.Float64bits(sub.Y[0]) != math.Float64bits(ds.Y[1]) || sub.Group[2] != ds.Group[5] {
		t.Error("Subset wrong")
	}
	// Mutating the subset must not touch the parent.
	sub.X.Set(0, 0, -999)
	if ds.X.At(1, 0) == -999 {
		t.Error("Subset aliases parent storage")
	}
}

func TestSpecString(t *testing.T) {
	s := linSpec(3, Linear, Excluded, Spline3)
	s.Interactions = []Interaction{{0, 2}}
	out := s.String()
	if out == "" {
		t.Fatal("empty spec string")
	}
	if s.NumTerms() != 3 {
		t.Errorf("NumTerms = %d, want 3", s.NumTerms())
	}
}
