package lifecycle

import "math"

// The detector's fixed settings.
const (
	// driftAlpha is the EWMA smoothing factor over |relative error|: roughly
	// a 10-observation memory, matching the paper's 10–20 fresh profiles per
	// update.
	driftAlpha = 0.1
	// driftWarmup is how many observations must arrive before the detector
	// may trip: the EWMA needs seeding before it means anything.
	driftWarmup = 10
)

// DriftConfig tunes the streaming drift detector. The zero value is replaced
// by withDefaults; all fields are plain numbers so a detector's behavior is a
// pure function of the observation stream.
type DriftConfig struct {
	// Target is the error level considered healthy (default 0.15, the paper's
	// 15% ErrThreshold from the update protocol in §3.3). Smoothed error
	// above it accumulates into the CUSUM statistic.
	Target float64
	// Threshold is the CUSUM level that trips the detector (default 1.0 —
	// about ten consecutive observations running 10 points over Target).
	Threshold float64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Target <= 0 {
		c.Target = 0.15
	}
	if c.Threshold <= 0 {
		c.Threshold = 1.0
	}
	return c
}

// Detector watches a stream of prediction-vs-observed relative errors and
// trips when the smoothed error has run persistently above the healthy
// target: an EWMA filters per-sample jitter, and a one-sided CUSUM
// accumulates how far the smoothed error exceeds Target, so a regime
// shift (sustained excess) trips while an isolated outlier decays. Fully
// deterministic in the observation stream; not internally locked (the
// Controller serializes Observe under its mutex).
type Detector struct {
	cfg   DriftConfig
	ewma  float64
	cusum float64
	n     int
}

// NewDetector returns a detector with cfg (zero fields defaulted).
func NewDetector(cfg DriftConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults()}
}

// Observe feeds one |relative error| observation and reports whether the
// detector is tripped after it. Non-finite observations are treated as a
// maximally bad reading (1.0 relative error) rather than poisoning the EWMA.
func (d *Detector) Observe(relErr float64) bool {
	if math.IsNaN(relErr) || math.IsInf(relErr, 0) {
		relErr = 1.0
	}
	relErr = math.Abs(relErr)
	d.n++
	if d.n == 1 {
		d.ewma = relErr
	} else {
		d.ewma = driftAlpha*relErr + (1-driftAlpha)*d.ewma
	}
	d.cusum = math.Max(0, d.cusum+d.ewma-d.cfg.Target)
	return d.Tripped()
}

// Tripped reports whether the accumulated excess error has crossed the
// threshold (after warmup).
func (d *Detector) Tripped() bool {
	return d.n >= driftWarmup && d.cusum >= d.cfg.Threshold
}

// Reset clears the CUSUM accumulator and warmup counter after a promotion or
// rollback, so the next episode judges the new regime from scratch. The EWMA
// is kept as the starting estimate: the error level itself did not reset.
func (d *Detector) Reset() {
	d.cusum = 0
	d.n = 0
}

// Score returns the current CUSUM statistic (the drift score exported to
// metrics) and EWMA returns the smoothed relative error.
func (d *Detector) Score() float64 { return d.cusum }

// EWMA returns the current smoothed |relative error|.
func (d *Detector) EWMA() float64 { return d.ewma }

// Observations returns how many errors have been observed since the last
// Reset.
func (d *Detector) Observations() int { return d.n }
