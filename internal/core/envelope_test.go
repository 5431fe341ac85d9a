package core

import (
	"math"
	"testing"

	"hsmodel/internal/rng"
)

// TestFamiliesAnswerInsideTrainingEnvelope: for every built-in family, a
// finite row far outside the training data (±1e308 in any one variable, in
// every variable at once, or a random mix of extremes) gets a finite answer
// inside the 1.5x envelope of the training responses, inside a batch and
// answered alone alike.
func TestFamiliesAnswerInsideTrainingEnvelope(t *testing.T) {
	snaps, held := familyFits(t)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range familyFitsTrain {
		lo, hi = math.Min(lo, s.CPI), math.Max(hi, s.CPI)
	}
	lo, hi = lo/1.5, hi*1.5

	var rows [][]float64
	for _, s := range held[:5] {
		for v := 0; v < NumVars; v++ {
			for _, x := range []float64{1e308, -1e308} {
				row := s.Row()
				row[v] = x
				rows = append(rows, row)
			}
		}
	}
	for _, x := range []float64{1e308, -1e308, 1e150} {
		row := make([]float64, NumVars)
		for v := range row {
			row[v] = x
		}
		rows = append(rows, row)
	}
	src := rng.New(35)
	extremes := []float64{1e308, -1e308, 1e150, -1e150, 0, 1e-300}
	for i := 0; i < 200; i++ {
		row := held[src.Intn(len(held))].Row()
		for v := range row {
			if src.Intn(3) == 0 {
				row[v] = extremes[src.Intn(len(extremes))]
			}
		}
		rows = append(rows, row)
	}

	for _, name := range []string{"spline", "residual", "dal"} {
		t.Run(name, func(t *testing.T) {
			snap := snaps[name]
			batch := make([]float64, len(rows))
			if err := snap.PredictBatch(rows, batch); err != nil {
				t.Fatal(err)
			}
			for i, y := range batch {
				if !(y >= lo && y <= hi) {
					t.Fatalf("row %d %v: PredictBatch %v, want inside [%v, %v]", i, rows[i], y, lo, hi)
				}
				var alone [1]float64
				snap.fam.PredictBatch(rows[i:i+1], alone[:])
				if math.Float64bits(alone[0]) != math.Float64bits(y) {
					t.Fatalf("row %d: answered alone %v, inside a batch %v", i, alone[0], y)
				}
			}
		})
	}
}
