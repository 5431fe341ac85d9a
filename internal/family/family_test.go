package family

import (
	"math"
	"testing"

	"hsmodel/internal/linalg"
	"hsmodel/internal/regress"
	"hsmodel/internal/stats"
)

// TestValScoreEdgeRules pins the score's three edge rules: an empty group is
// skipped rather than averaged in, no split scores every row as one group,
// and a split with nothing to score returns FailedFit.
func TestValScoreEdgeRules(t *testing.T) {
	y := []float64{1, 2, 4, 8, 10, 20}
	pred := []float64{1.1, 2, 3, 8, 12, 19}
	// score hands ValScore the predictions of split's rows in ValOrder.
	score := func(split [][]int) float64 {
		var p []float64
		for _, r := range ValOrder(split, len(y)) {
			p = append(p, pred[r])
		}
		return ValScore(p, y, split)
	}
	medape := func(rows ...int) float64 {
		var p, tr []float64
		for _, r := range rows {
			p = append(p, pred[r])
			tr = append(tr, y[r])
		}
		return stats.MedianAbsPctError(p, tr)
	}

	two := score([][]int{{0, 1, 2}, {3, 4, 5}})
	if want := (medape(0, 1, 2) + medape(3, 4, 5)) / 2; math.Float64bits(two) != math.Float64bits(want) {
		t.Errorf("two groups: %v, want their mean %v", two, want)
	}
	withEmpty := score([][]int{{0, 1, 2}, {}, {3, 4, 5}})
	if math.Float64bits(withEmpty) != math.Float64bits(two) {
		t.Errorf("an empty group changed the score: %v, want %v", withEmpty, two)
	}

	all := medape(0, 1, 2, 3, 4, 5)
	for name, split := range map[string][][]int{"nil": nil, "empty": {}} {
		if got := score(split); math.Float64bits(got) != math.Float64bits(all) {
			t.Errorf("no split (%s): %v, want every row as one group %v", name, got, all)
		}
	}

	if got := score([][]int{{}, {}}); got != FailedFit {
		t.Errorf("all groups empty: %v, want FailedFit", got)
	}
}

// TestHoldOutEvaluator: a fit that fails scores FailedFit, and a fit that
// succeeds scores the validation MedAPE of the model fitted on the other
// three rows in four, bit for bit.
func TestHoldOutEvaluator(t *testing.T) {
	const n = 16
	ds := &regress.Dataset{Names: []string{"a", "b"}, X: linalg.NewMatrix(n, 2), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b := float64(i%5)+1, float64(i*7%11)+1
		ds.X.Set(i, 0, a)
		ds.X.Set(i, 1, b)
		ds.Y[i] = 2 + 0.5*a + 0.1*b*b + 0.01*float64(i%3)
	}
	prep := regress.Prepare(ds, false)
	eval, err := HoldOutEvaluator(ds, prep)
	if err != nil {
		t.Fatal(err)
	}

	// Two piecewise cubics and the intercept need thirteen columns, one
	// more than the twelve training rows.
	tooWide := regress.Spec{Codes: []regress.TransformCode{regress.Spline3, regress.Spline3}}
	if got := eval.Fitness(tooWide); got != FailedFit {
		t.Errorf("failed fit scored %v, want FailedFit", got)
	}

	spec := regress.Spec{Codes: []regress.TransformCode{regress.Linear, regress.Quadratic}}
	var train, val []int
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			val = append(val, i)
		} else {
			train = append(train, i)
		}
	}
	fz, err := regress.FeaturizeWith(prep, ds.Subset(train))
	if err != nil {
		t.Fatal(err)
	}
	m, err := fz.Fit(spec, regress.Options{LogResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Evaluate(ds.Subset(val)).MedAPE
	if got := eval.Fitness(spec); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("hold-out score %v, want the validation MedAPE %v", got, want)
	}
}
