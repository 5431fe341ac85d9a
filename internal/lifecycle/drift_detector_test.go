package lifecycle

import (
	"math"
	"testing"
)

func TestDetectorTripsOnSustainedError(t *testing.T) {
	d := NewDetector(DriftConfig{})
	for i := 0; i < 100; i++ {
		if d.Observe(0.05) {
			t.Fatalf("observation %d: tripped on healthy 5%% error stream", i+1)
		}
	}
	trippedAt := -1
	for i := 0; i < 50; i++ {
		if d.Observe(0.5) {
			trippedAt = i + 1
			break
		}
	}
	if trippedAt < 0 {
		t.Fatal("sustained 50% error never tripped the detector")
	}
	if trippedAt > 20 {
		t.Errorf("tripped after %d bad observations, want prompt (<=20)", trippedAt)
	}
	d.Reset()
	if d.Tripped() {
		t.Error("detector still tripped after Reset")
	}
	if d.Observations() != 0 {
		t.Errorf("observations %d after Reset, want 0", d.Observations())
	}
}

func TestDetectorIgnoresIsolatedOutlier(t *testing.T) {
	d := NewDetector(DriftConfig{})
	for i := 0; i < 30; i++ {
		d.Observe(0.05)
	}
	d.Observe(2.0) // one wild reading (200% error)
	for i := 0; i < 100; i++ {
		if d.Observe(0.05) {
			t.Fatalf("observation %d after outlier: detector tripped on a single spike", i+1)
		}
	}
}

func TestDetectorWarmupSuppressesEarlyTrips(t *testing.T) {
	d := NewDetector(DriftConfig{})
	for i := 0; i < 9; i++ {
		if d.Observe(2.0) {
			t.Fatalf("observation %d: tripped before warmup", i+1)
		}
	}
}

func TestDetectorSanitizesNonFinite(t *testing.T) {
	d := NewDetector(DriftConfig{})
	d.Observe(math.Inf(1))
	d.Observe(math.Inf(-1))
	d.Observe(math.NaN())
	if e := d.EWMA(); math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
		t.Fatalf("EWMA %v poisoned by non-finite observations", e)
	}
	// Non-finite readings count as maximally bad (1.0), so a stream of them
	// still trips the detector instead of silently disabling it.
	tripped := false
	for i := 0; i < 30; i++ {
		tripped = d.Observe(math.NaN()) || tripped
	}
	if !tripped {
		t.Error("sustained non-finite readings never tripped the detector")
	}
}
