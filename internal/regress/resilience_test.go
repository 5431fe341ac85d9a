package regress

import (
	"errors"
	"math"
	"testing"
)

// TestFitSpecRejectsNonFiniteInput: NaN/Inf profiles must be rejected up
// front, when the dataset is featurized, as ErrBadInput rather than silently
// poisoning the factorization.
func TestFitSpecRejectsNonFiniteInput(t *testing.T) {
	mk := func() *Dataset {
		return mkDataset(50, 3, 7, func(x []float64) float64 { return 1 + x[0] + x[1] })
	}
	spec := linSpec(3, Linear, Linear, Linear)

	nanX := mk()
	nanX.X.Row(10)[1] = math.NaN()
	if _, err := fitOn(spec, nanX, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN in X: err = %v, want ErrBadInput", err)
	}

	infX := mk()
	infX.X.Row(3)[0] = math.Inf(-1)
	if _, err := fitOn(spec, infX, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("Inf in X: err = %v, want ErrBadInput", err)
	}

	nanY := mk()
	nanY.Y[20] = math.NaN()
	if _, err := fitOn(spec, nanY, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN in Y: err = %v, want ErrBadInput", err)
	}

	// A clean dataset still fits.
	if _, err := fitOn(spec, mk(), Options{}); err != nil {
		t.Errorf("clean fit failed: %v", err)
	}
}

func TestFitSpecNonPositiveResponseIsBadInput(t *testing.T) {
	ds := mkDataset(40, 2, 9, func(x []float64) float64 { return 2 + x[0] })
	ds.Y[5] = 0
	_, err := fitOn(linSpec(2, Linear, Linear), ds, Options{LogResponse: true})
	if !errors.Is(err, ErrBadInput) {
		t.Errorf("err = %v, want ErrBadInput", err)
	}
}

func TestFitSpecWeightMismatchIsBadInput(t *testing.T) {
	ds := mkDataset(40, 2, 11, func(x []float64) float64 { return 2 + x[0] })
	_, err := fitOn(linSpec(2, Linear, Linear), ds, Options{Weights: []float64{1, 2, 3}})
	if !errors.Is(err, ErrBadInput) {
		t.Errorf("err = %v, want ErrBadInput", err)
	}
}

// TestFitSpecZeroWeightsSingular: all-zero weights zero out the entire
// design, making even the intercept column vanish — the one realistic route
// to a rank-0 system. It must surface as ErrSingular, not a raw linalg
// error or a garbage model.
func TestFitSpecZeroWeightsSingular(t *testing.T) {
	ds := mkDataset(30, 2, 13, func(x []float64) float64 { return 1 + x[0] })
	w := make([]float64, 30)
	_, err := fitOn(linSpec(2, Linear, Linear), ds, Options{Weights: w})
	if !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

// TestFitSpecRecoversPanic: Featurizer.Fit is the panic boundary for the
// fitting stack. A basis cache inconsistent with the dataset (here: one
// variable's column cut short) indexes out of range deep in design
// construction; that must come back as ErrBadInput, not kill the process.
func TestFitSpecRecoversPanic(t *testing.T) {
	ds := mkDataset(30, 3, 17, func(x []float64) float64 { return 1 + x[0] + x[2] })
	fz, err := NewFeaturizer(ds, false)
	if err != nil {
		t.Fatal(err)
	}
	fz.basis[1][0] = fz.basis[1][0][:5]
	_, err = fz.Fit(linSpec(3, Linear, Linear, Linear), Options{})
	if !errors.Is(err, ErrBadInput) {
		t.Errorf("err = %v, want ErrBadInput wrapping the recovered panic", err)
	}
}

// Collinear columns are NOT singular: pivoting drops them (coefficient
// exactly 0) and the fit proceeds. Guard that the hardening did not
// over-reject.
func TestFitSpecCollinearColumnsStillFit(t *testing.T) {
	ds := mkDataset(60, 2, 19, func(x []float64) float64 { return 1 + 2*x[0] })
	for i := 0; i < ds.NumRows(); i++ {
		row := ds.X.Row(i)
		row[1] = 3 * row[0] // exact collinearity
	}
	m, err := fitOn(linSpec(2, Linear, Linear), ds, Options{})
	if err != nil {
		t.Fatalf("collinear fit should succeed via pivoting: %v", err)
	}
	if m.Coef[1] != 0 && m.Coef[2] != 0 {
		t.Errorf("coefficients %v: expected a collinear column zeroed", m.Coef)
	}
}
