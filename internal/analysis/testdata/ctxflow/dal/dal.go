// Fixture extending the ctxflow analyzer to the model-family packages: the
// package is named "dal" so the family cancellation contract applies — a
// family's Fit runs searches and per-cluster fits in loops, and an exported
// fitting entry point that loops over cancellable work without accepting
// (and using) a context would make the selection harness and the trainer's
// SearchTimeout uncancellable.
package dal

import "context"

func fitCluster(ctx context.Context) error { return ctx.Err() }

// Fit fits one local model per cluster with no way for the selection
// harness to stop a runaway round.
func Fit(clusters int) {
	for i := 0; i < clusters; i++ { // want `exported Fit loops over cancellable work but has no context.Context parameter`
		_ = fitCluster(context.Background())
	}
}

// FitCtx threads the episode context through each per-cluster fit. Legal.
func FitCtx(ctx context.Context, clusters int) error {
	for i := 0; i < clusters; i++ {
		if err := fitCluster(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Dispatch is the serving fast path: nearest-centroid arithmetic, no
// cancellable work, no context needed. Legal.
func Dispatch(centroids [][]float64, row []float64) int {
	best, bestDist := 0, 0.0
	for i, c := range centroids {
		var d float64
		for j := range row {
			diff := row[j] - c[j]
			d += diff * diff
		}
		if i == 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}
