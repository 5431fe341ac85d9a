package core

import (
	"math"
	"testing"

	"hsmodel/internal/genetic"
	"hsmodel/internal/spmv"
)

// TestFamiliesSmoke is the CI gate for the model-family subsystem (run by
// `make test` and `make race`): every built-in family fits the spmv domain
// corpus — the 10-variable space of Section 5.3, exercising a non-26-var
// arity through the whole harness — selection completes with a scoreboard
// covering all three families, and the chosen family is never worse than the
// reference spline baseline on the shared validation rows.
func TestFamiliesSmoke(t *testing.T) {
	corpus := spmv.Corpus()
	if len(corpus) < 2 {
		t.Fatalf("spmv corpus has %d matrices, want at least 2", len(corpus))
	}
	// Two matrices keep the smoke fast; each contributes one "application"
	// group so the per-app weighted splits and per-app scoring both engage.
	var points []spmv.Point
	var group []int
	for i, spec := range corpus[:2] {
		study := spmv.NewStudy(spec)
		pts := study.Sample(60, 7+uint64(i))
		points = append(points, pts...)
		for range pts {
			group = append(group, i)
		}
	}
	ds := spmv.BuildDomainDataset(points, spmv.PredictMFlops)
	ds.Group = group

	sel, err := selectOn(t, ds, FitnessConfig{Seed: 5},
		genetic.Params{PopulationSize: 16, Generations: 6, Seed: 42}, DefaultFamilies())
	if err != nil {
		t.Fatalf("selection did not complete: %v (per-family: %v)", err, sel.Errors)
	}
	for name, ferr := range sel.Errors {
		t.Errorf("family %s failed to fit the domain corpus: %v", name, ferr)
	}
	if len(sel.Scores) != len(DefaultFamilies()) {
		t.Fatalf("scoreboard %v does not cover every built-in family", sel.Scores)
	}
	winner, ok := sel.Scores[sel.Winner]
	if !ok || sel.Model == nil {
		t.Fatalf("winner %q missing from scoreboard %v or has no model", sel.Winner, sel.Scores)
	}
	baseline := sel.Scores["spline"]
	if winner > baseline {
		t.Errorf("chosen family %s (CV MedAPE %.4f) is worse than the spline baseline (%.4f)",
			sel.Winner, winner, baseline)
	}
	t.Logf("winner %s; scores %v", sel.Winner, sel.Scores)

	// The winner must predict finite values over the whole domain dataset.
	rows := make([][]float64, ds.NumRows())
	for i := range rows {
		rows[i] = ds.X.Row(i)
	}
	pred := make([]float64, len(rows))
	sel.Model.PredictBatch(rows, pred)
	for i, p := range pred {
		if p <= 0 || math.IsNaN(p) {
			t.Fatalf("row %d: winner predicts %v for a positive MFlops response", i, p)
		}
	}
}
