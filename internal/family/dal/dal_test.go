package dal_test

import (
	"context"
	"math"
	"testing"

	"hsmodel/internal/core"
	"hsmodel/internal/family"
	"hsmodel/internal/family/dal"
	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
	"hsmodel/internal/trace"
)

// TestPredictBitsAndPayloadRoundTrip fits the family (one spline model per k-means cluster beside the pooled model) on a small
// collected store, then checks on held-out rows that a row answered inside
// a batch of all of them has the bits it has answered alone, and that the
// model Load rebuilds from Payload answers the same bits too.
func TestPredictBitsAndPayloadRoundTrip(t *testing.T) {
	col := &core.Collector{ShardLen: 20_000, ShardPool: 12}
	apps := []*trace.App{trace.Bzip2(), trace.Hmmer(), trace.Sjeng()}
	ds := core.ToDataset(col.Collect(apps, 24, 5))
	fz, err := regress.NewFeaturizer(ds, true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := family.HoldOutEvaluator(ds, fz.Prep())
	if err != nil {
		t.Fatal(err)
	}
	fam := dal.New()
	out, err := fam.Fit(context.Background(), family.FitInput{
		NumVars: core.NumVars, Dataset: ds, Featurizer: fz, Evaluator: eval,
		Search:      genetic.Params{PopulationSize: 8, Generations: 2, Seed: 3},
		LogResponse: true, Stabilize: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}

	held := core.ToDataset(col.Collect(apps, 6, 17))
	rows := make([][]float64, held.NumRows())
	for i := range rows {
		rows[i] = held.X.Row(i)
	}
	batch := make([]float64, len(rows))
	out.Model.PredictBatch(rows, batch)
	payload, err := out.Model.Payload()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := fam.Load(payload, core.NumVars)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := make([]float64, len(rows))
	loaded.PredictBatch(rows, reloaded)
	for i, want := range batch {
		if math.IsNaN(want) || math.IsInf(want, 0) {
			t.Fatalf("row %d: prediction %v, want finite", i, want)
		}
		var alone [1]float64
		out.Model.PredictBatch(rows[i:i+1], alone[:])
		if math.Float64bits(alone[0]) != math.Float64bits(want) {
			t.Errorf("row %d: answered alone %v, inside a batch of %d %v", i, alone[0], len(rows), want)
		}
		if math.Float64bits(reloaded[i]) != math.Float64bits(want) {
			t.Errorf("row %d: reloaded model predicts %v, fitted model %v", i, reloaded[i], want)
		}
	}
	if got, want := loaded.Describe(), out.Model.Describe(); got != want {
		t.Errorf("reloaded model describes itself as %+v, fitted model %+v", got, want)
	}
}
