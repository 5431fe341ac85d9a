package core

import (
	"context"
	"fmt"

	"hsmodel/internal/regress"
)

// UpdatePolicy governs the inductive update protocol of Sections 3.2–3.3:
// when the system is perturbed by new software or hardware, the existing
// model is checked against the new profiles; an inaccurate prediction may be
// an outlier, so more data is gathered (the paper finds 10–20 additional
// points sufficient) before triggering a re-specification. Requiring
// profiles to accrue before updating introduces the paper's hysteresis.
type UpdatePolicy struct {
	// ErrThreshold is the median-error level above which the model is
	// considered to be serving the perturbation poorly. The paper notes
	// "median errors less than 10-15% may be sufficient to make
	// coarse-grained resource allocations"; the default is 0.15.
	ErrThreshold float64
}

// MinUpdateProfiles is how many profiles of a perturbation must accrue
// before an update may trigger: the low end of the paper's 10–20 range.
const MinUpdateProfiles = 10

func (p UpdatePolicy) withDefaults() UpdatePolicy {
	if p.ErrThreshold <= 0 {
		p.ErrThreshold = 0.15
	}
	return p
}

// Decision reports what the update protocol concluded for a perturbation.
type Decision struct {
	// Checked is the accuracy of the existing model on the perturbation's
	// profiles.
	Checked regress.Metrics
	// NeedsMoreData is set when the error exceeds the threshold but too few
	// profiles have accrued to rule out an outlier.
	NeedsMoreData bool
	// Updated is set when a model update was triggered and performed.
	Updated bool
}

func (d Decision) String() string {
	switch {
	case d.Updated:
		return fmt.Sprintf("updated (checked: %v)", d.Checked)
	case d.NeedsMoreData:
		return fmt.Sprintf("accruing profiles (checked: %v)", d.Checked)
	default:
		return fmt.Sprintf("model retained (checked: %v)", d.Checked)
	}
}

// Perturb runs the inductive step for a batch of profiles from a new
// application, architecture, or both:
//
//  1. Check the existing model's accuracy on the new profiles. If
//     predictions are accurate, the new behavior is already shared with
//     observed software — absorb the samples without re-specifying.
//  2. If inaccurate but below the profile-count floor, withhold judgment
//     (the error could be an outlier) and keep accruing.
//  3. Otherwise insert the profiles into the store and invoke the heuristic
//     to re-specify and refit, warm-starting from the current population.
//
// The new samples are always added to the store so future training sees
// them, unless they would overflow it: Perturb then returns AddSamples'
// ErrStoreFull and neither adds nor trains.
func (m *Trainer) Perturb(ctx context.Context, newSamples []Sample, policy UpdatePolicy) (Decision, error) {
	policy = policy.withDefaults()
	var d Decision
	snap := m.Snapshot()
	if !snap.Trained() {
		return d, fmt.Errorf("core: Perturb before Train")
	}
	if len(newSamples) == 0 {
		return d, fmt.Errorf("core: Perturb with no samples")
	}
	checked, err := snap.EvaluateOn(newSamples)
	if err != nil {
		return d, err
	}
	d.Checked = checked

	if err := m.AddSamples(newSamples); err != nil {
		return d, err
	}
	if checked.MedAPE <= policy.ErrThreshold {
		// Sufficiently accurate: "the new application likely shares
		// behavior with already observed software."
		return d, nil
	}
	if len(newSamples) < MinUpdateProfiles {
		d.NeedsMoreData = true
		return d, nil
	}
	if err := m.Train(ctx); err != nil {
		return d, err
	}
	d.Updated = true
	return d, nil
}
