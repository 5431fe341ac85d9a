// Quickstart: collect sparse hardware-software profiles, train an inferred
// performance model with the genetic heuristic, and predict the performance
// of an unseen (shard, architecture) pair — all through the public
// pkg/hsmodel facade.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"math"
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
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, stdout io.Writer) error {
	// 1. Workloads: the seven SPEC2006 stand-ins.
	apps := trace.SPEC2006()

	// 2. Sparse profiling: 80 random (shard, architecture) pairs per
	//    application — a small fraction of the integrated space.
	collector := &hsmodel.Collector{ShardLen: 50_000, ShardPool: 40}
	fmt.Fprintln(stdout, "collecting sparse profiles (7 apps x 80 pairs)...")
	samples := collector.Collect(apps, 80, 42)

	// 3. Automated modeling: the genetic search chooses variables,
	//    transformations, and interactions.
	modeler := hsmodel.New(samples,
		hsmodel.WithSeed(7),
		hsmodel.WithPopulation(30),
		hsmodel.WithGenerations(8),
	)
	fmt.Fprintln(stdout, "training (genetic search over model specifications)...")
	if err := modeler.Train(ctx); err != nil {
		return err
	}
	best := modeler.Population()[0]
	fmt.Fprintf(stdout, "converged: fitness %.3f, spec %s\n\n", best.Fitness, best.Spec)

	// 4. Predict an unseen pair and check it against simulation.
	hw := hsmodel.RandomConfig(99)
	unseen := collector.Collect(apps[0:1], 1, 1234)[0]
	snap := modeler.Snapshot()
	pred, err := snap.PredictShard(unseen.X, hw)
	if err != nil {
		return err
	}
	truth := collector.CollectPairs(apps, []int{0}, []int{unseen.Shard}, []hsmodel.Config{hw})[0].CPI
	fmt.Fprintf(stdout, "astar shard %d on %s\n", unseen.Shard, hw)
	fmt.Fprintf(stdout, "  predicted CPI %.3f, simulated CPI %.3f (error %.1f%%)\n",
		pred, truth, 100*math.Abs(pred-truth)/truth)

	// 5. Whole-application prediction aggregates shard predictions.
	const nShards = 10
	appIDs, shardIDs, hws := make([]int, nShards), make([]int, nShards), make([]hsmodel.Config, nShards)
	for s := range shardIDs {
		appIDs[s], shardIDs[s], hws[s] = 2, s, hw
	}
	var xs []hsmodel.Characteristics
	var truthSum float64
	for _, s := range collector.CollectPairs(apps, appIDs, shardIDs, hws) {
		xs = append(xs, s.X)
		truthSum += s.CPI
	}
	appPred, err := snap.PredictApplication(xs, hw)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bzip2 (10 shards) on the same machine\n")
	fmt.Fprintf(stdout, "  predicted CPI %.3f, simulated CPI %.3f (error %.1f%%)\n",
		appPred, truthSum/10, 100*math.Abs(appPred-truthSum/10)/(truthSum/10))
	return nil
}
