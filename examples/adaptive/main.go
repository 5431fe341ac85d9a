// Adaptive architecture: the paper's reconfigurable-chip motivation.
//
// A core can reconfigure between power-of-two operating points (window
// size, cache allocation, functional units) at phase granularity. As an
// application runs, each shard is profiled and the inferred model picks the
// configuration with the best predicted performance before the shard
// executes — the run-time decision loop the paper's models are meant to
// close ("control mechanisms for reconfigurable architectures").
//
// The example also exercises the Section 3.2-3.3 update protocol: the model
// is bootstrapped WITHOUT gemsFDTD; when gemsFDTD shows up, its first
// profiles check poorly, more profiles accrue, and the model re-specifies.
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"

	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptive:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, stdout io.Writer) error {
	// The reconfigurable core's operating points. The first, balanced, is
	// the baseline: the static configuration, and the one a shard's
	// profile is measured on.
	points := []struct {
		name string
		cfg  hsmodel.Config
	}{
		{"balanced", hsmodel.Baseline()},
		{"throughput", hsmodel.ConfigFromIndices(hsmodel.Indices{3, 4, 1, 3, 2, 2, 3, 1, 3, 1, 2, 1, 3})},
		{"cache-heavy", hsmodel.ConfigFromIndices(hsmodel.Indices{2, 2, 3, 2, 3, 3, 4, 0, 1, 0, 1, 0, 1})},
		{"narrow-eco", hsmodel.ConfigFromIndices(hsmodel.Indices{0, 0, 1, 1, 1, 1, 1, 2, 0, 0, 0, 0, 0})},
	}

	// Bootstrap the model from six applications (gemsFDTD withheld).
	apps := trace.SPEC2006()
	var boot []*trace.App
	gemsID := -1
	for i, a := range apps {
		if a.Name == "gemsFDTD" {
			gemsID = i
			continue
		}
		boot = append(boot, a)
	}
	col := &hsmodel.Collector{ShardLen: 50_000, ShardPool: 40}
	fmt.Fprintln(stdout, "bootstrapping model without gemsFDTD...")
	m := hsmodel.New(col.Collect(boot, 90, 5),
		hsmodel.WithSeed(21),
		hsmodel.WithPopulation(28),
		hsmodel.WithGenerations(8),
	)
	if err := m.Train(ctx); err != nil {
		return err
	}

	// gemsFDTD arrives. Run 14 shards: for each, profile, consult the
	// model for the best operating point, and compare against the static
	// balanced configuration. One collection measures every shard on every
	// operating point up front; the measurements do not depend on the model.
	fmt.Fprintln(stdout, "\ngemsFDTD arrives; adapting per shard:")
	var appIDs, shards []int
	var cfgs []hsmodel.Config
	for shard := 0; shard < 14; shard++ {
		for _, p := range points {
			appIDs, shards, cfgs = append(appIDs, gemsID), append(shards, shard), append(cfgs, p.cfg)
		}
	}
	all := col.CollectPairs(apps, appIDs, shards, cfgs)
	var adaptiveCycles, staticCycles float64
	var accrued []hsmodel.Sample
	for shard := 0; shard < 14; shard++ {
		measured := all[shard*len(points):][:len(points)]
		static := measured[0]

		snap := m.Snapshot()
		best, bestPred := -1, 0.0
		for k, p := range points {
			pred, err := snap.PredictShard(static.X, p.cfg)
			if err != nil {
				return err
			}
			if best < 0 || pred < bestPred {
				best, bestPred = k, pred
			}
		}
		chosen := measured[best]
		adaptiveCycles += chosen.CPI
		staticCycles += static.CPI
		fmt.Fprintf(stdout, "  shard %2d -> %-11s predicted %.2f, actual %.2f (static %.2f)\n",
			shard, points[best].name, bestPred, chosen.CPI, static.CPI)

		// Feed the observation back; the update protocol decides when to
		// re-specify (10+ accrued profiles and still inaccurate).
		accrued = append(accrued, chosen)
		if len(accrued) == 12 {
			d, err := m.Perturb(ctx, accrued, hsmodel.UpdatePolicy{ErrThreshold: 0.08})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  [update protocol after 12 profiles: %v]\n", d)
		}
	}
	fmt.Fprintf(stdout, "\nmean CPI: adaptive %.3f vs static-balanced %.3f (%.1f%% better)\n",
		adaptiveCycles/14, staticCycles/14,
		100*(staticCycles-adaptiveCycles)/staticCycles)
	return nil
}
