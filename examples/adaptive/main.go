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
	"log"

	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

func main() {
	ctx := context.Background()
	// The reconfigurable core's operating points.
	points := map[string]hsmodel.Config{
		"throughput":  hsmodel.ConfigFromIndices(hsmodel.Indices{3, 4, 1, 3, 2, 2, 3, 1, 3, 1, 2, 1, 3}),
		"balanced":    hsmodel.Baseline(),
		"cache-heavy": hsmodel.ConfigFromIndices(hsmodel.Indices{2, 2, 3, 2, 3, 3, 4, 0, 1, 0, 1, 0, 1}),
		"narrow-eco":  hsmodel.ConfigFromIndices(hsmodel.Indices{0, 0, 1, 1, 1, 1, 1, 2, 0, 0, 0, 0, 0}),
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
	fmt.Println("bootstrapping model without gemsFDTD...")
	m := hsmodel.New(col.Collect(boot, 90, 5),
		hsmodel.WithSeed(21),
		hsmodel.WithPopulation(28),
		hsmodel.WithGenerations(8),
	)
	if err := m.Train(ctx); err != nil {
		log.Fatal(err)
	}

	// gemsFDTD arrives. Run 14 shards: for each, profile, consult the
	// model for the best operating point, and compare against the static
	// balanced configuration.
	fmt.Println("\ngemsFDTD arrives; adapting per shard:")
	var adaptiveCycles, staticCycles float64
	var accrued []hsmodel.Sample
	for shard := 0; shard < 14; shard++ {
		x := col.CollectPairs(apps, []int{gemsID}, []int{shard},
			[]hsmodel.Config{hsmodel.Baseline()})[0].X

		bestName, bestPred := "", 0.0
		for name, cfg := range points {
			pred, err := m.PredictShard(x, cfg)
			if err != nil {
				log.Fatal(err)
			}
			if bestName == "" || pred < bestPred {
				bestName, bestPred = name, pred
			}
		}
		chosen := col.CollectPairs(apps, []int{gemsID}, []int{shard},
			[]hsmodel.Config{points[bestName]})[0]
		static := col.CollectPairs(apps, []int{gemsID}, []int{shard},
			[]hsmodel.Config{points["balanced"]})[0]
		adaptiveCycles += chosen.CPI
		staticCycles += static.CPI
		fmt.Printf("  shard %2d -> %-11s predicted %.2f, actual %.2f (static %.2f)\n",
			shard, bestName, bestPred, chosen.CPI, static.CPI)

		// Feed the observation back; the update protocol decides when to
		// re-specify (10+ accrued profiles and still inaccurate).
		accrued = append(accrued, chosen)
		if len(accrued) == 12 {
			d, err := m.Perturb(ctx, accrued, hsmodel.UpdatePolicy{ErrThreshold: 0.08})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  [update protocol after 12 profiles: %v]\n", d)
		}
	}
	fmt.Printf("\nmean CPI: adaptive %.3f vs static-balanced %.3f (%.1f%% better)\n",
		adaptiveCycles/14, staticCycles/14,
		100*(staticCycles-adaptiveCycles)/staticCycles)
}
