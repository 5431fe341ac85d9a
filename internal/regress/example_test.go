package regress_test

import (
	"fmt"

	"hsmodel/internal/linalg"
	"hsmodel/internal/regress"
)

// ExampleFeaturizer_Fit fits the paper's z = b0 + b1*x + b2*y + b3*x*y
// interaction form (Section 3.1) and recovers the generating coefficients.
func ExampleFeaturizer_Fit() {
	// y = 1 + 2a + 3b + 0.5ab over a small grid.
	ds := &regress.Dataset{
		Names: []string{"a", "b"},
		X:     linalg.NewMatrix(25, 2),
		Y:     make([]float64, 25),
	}
	for i := 0; i < 25; i++ {
		a, b := float64(i%5), float64(i/5)
		ds.X.Set(i, 0, a)
		ds.X.Set(i, 1, b)
		ds.Y[i] = 1 + 2*a + 3*b + 0.5*a*b
	}
	spec := regress.Spec{
		Codes:        []regress.TransformCode{regress.Linear, regress.Linear},
		Interactions: []regress.Interaction{{I: 0, J: 1}},
	}
	fz, err := regress.NewFeaturizer(ds, false)
	if err != nil {
		fmt.Println(err)
		return
	}
	m, err := fz.Fit(spec, regress.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	var pred [1]float64
	m.PredictBatchWith(new(regress.PredictScratch), [][]float64{{2, 3}}, pred[:])
	fmt.Printf("prediction at (a=2, b=3): %.1f\n", pred[0])
	fmt.Printf("median error: %.4f\n", m.Evaluate(ds).MedAPE)
	// Output:
	// prediction at (a=2, b=3): 17.0
	// median error: 0.0000
}
