// Command hsserve is the HTTP prediction service: it serves single-shard and
// whole-application CPI predictions from a trained snapshot, coalesces
// concurrent predictions into shared model passes, absorbs new profiles into
// the trainer's store, and exposes Prometheus metrics — the serving half of
// the paper's always-available update protocol.
//
//	hsserve -model model.json                   serve a persisted snapshot
//	hsserve -bootstrap -samples 40 -apps 3      train in-process, then serve
//	hsserve -models fleet.json                  multi-model registry from a manifest
//	hsserve -lifecycle -bootstrap               continuous learning on the default model
//
// The server's own model is the registry entry "default", addressed as
// /v2/models/default/... like every other entry. -lifecycle needs a model to
// start from: -bootstrap or -model.
//
// SIGHUP hot-reloads the snapshot from -model without dropping requests;
// SIGINT/SIGTERM shut down gracefully, draining in-flight batches.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hsmodel/internal/serve"
	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelPath := flag.String("model", "", "snapshot file to serve (reloaded on SIGHUP)")
	bootstrap := flag.Bool("bootstrap", false, "collect samples and train a model before serving")
	samples := flag.Int("samples", 40, "bootstrap: (shard, architecture) samples per application")
	apps := flag.Int("apps", 3, "bootstrap: number of SPEC2006 applications to profile")
	pop := flag.Int("pop", 24, "bootstrap: genetic population size")
	gens := flag.Int("gens", 8, "bootstrap: genetic generations")
	seed := flag.Uint64("seed", 1, "bootstrap: random seed")
	shardLen := flag.Int("shardlen", 50_000, "bootstrap: shard length in instructions")
	maxBatch := flag.Int("max-batch", 32, "batcher jobs coalesced into one flush (a predict:batch request is one job)")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "batcher wait to fill a batch")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout")
	lifecycleOn := flag.Bool("lifecycle", false, "run the continuous-learning control loop on the default model's samples (bounded stores, drift detection, canary-gated retrains; needs -bootstrap or -model)")
	driftThreshold := flag.Float64("drift-threshold", 0, "lifecycle: accumulated excess error (CUSUM mass) that trips the drift detector (0 = default)")
	minProfiles := flag.Int("min-profiles", 0, "lifecycle: fresh post-drift profiles required before a shadow retrain (0 = default)")
	canaryTolerance := flag.Float64("canary-tolerance", 0, "lifecycle: relative slack a candidate gets on the canary set before promotion (0 = default)")
	modelsPath := flag.String("models", "", "multi-model manifest (JSON, wire Manifest schema): its entries are registered at boot and the file is rewritten after every successful /v2/models register/unregister")
	flag.Parse()

	logger := log.New(os.Stderr, "hsserve: ", log.LstdFlags)

	tr := hsmodel.New(nil, hsmodel.WithSeed(*seed), hsmodel.WithShardLen(*shardLen))
	if *bootstrap {
		if err := bootstrapTrain(tr, *apps, *samples, *pop, *gens, *seed, *shardLen, logger); err != nil {
			logger.Fatal(err)
		}
	}

	scfg := serve.Config{
		Trainer:        tr,
		MaxBatch:       *maxBatch,
		MaxWait:        *maxWait,
		RequestTimeout: *timeout,
		ModelPath:      *modelPath,
		ManifestPath:   *modelsPath,
		Logger:         logger,
	}
	if *lifecycleOn {
		lc := hsmodel.LifecycleConfig{
			MinProfiles:     *minProfiles,
			CanaryTolerance: *canaryTolerance,
			Seed:            *seed,
		}
		lc.Drift.Threshold = *driftThreshold
		scfg.Lifecycle = &lc
	}
	srv, err := serve.New(scfg)
	if err != nil {
		logger.Fatal(err)
	}
	if *lifecycleOn {
		logger.Println("lifecycle: continuous learning enabled on /v2/models/default/samples")
	}
	if *modelPath != "" {
		// Initial load uses the same guarded path as SIGHUP: a bad file is
		// reported and the server starts (untrained unless bootstrapped),
		// ready for a corrected file and another SIGHUP.
		if err := srv.Reload(); err != nil && !*bootstrap {
			logger.Printf("serving without a model until reload succeeds: %v", err)
		}
	}
	if !tr.Snapshot().Trained() {
		logger.Println("no model yet: predictions answer 503 until /v2/models/default/samples+update, -model reload, or -bootstrap")
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Printf("listening on %s", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case err := <-errc:
			logger.Fatal(err)
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if err := srv.Reload(); err != nil {
					logger.Printf("SIGHUP reload failed, serving previous model: %v", err)
				}
				continue
			}
			logger.Printf("%s: draining...", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			if err := hs.Shutdown(ctx); err != nil {
				logger.Printf("shutdown: %v", err)
			}
			cancel()
			srv.Close() // answer everything the batcher accepted
			logger.Println("drained, bye")
			return
		}
	}
}

// bootstrapTrain collects simulated sparse profiles and trains the serving
// model in-process, so hsserve can run without a model file.
func bootstrapTrain(tr *hsmodel.Trainer, nApps, samples, pop, gens int, seed uint64, shardLen int, logger *log.Logger) error {
	all := trace.SPEC2006()
	if nApps <= 0 || nApps > len(all) {
		nApps = len(all)
	}
	col := &hsmodel.Collector{ShardLen: shardLen}
	logger.Printf("bootstrap: collecting %d samples/app from %d applications...", samples, nApps)
	tr.SetSamples(col.Collect(all[:nApps], samples, seed))
	tr.Search = hsmodel.SearchParams{PopulationSize: pop, Generations: gens, Seed: seed}
	logger.Printf("bootstrap: training (pop %d, %d generations)...", pop, gens)
	start := time.Now()
	if err := tr.Train(context.Background()); err != nil {
		return fmt.Errorf("bootstrap training failed: %w", err)
	}
	snap := tr.Snapshot()
	logger.Printf("bootstrap: trained on %d rows in %s, family %s, spec %s",
		snap.TrainedRows(), time.Since(start).Round(time.Millisecond),
		snap.Family(), snap.Describe().Spec)
	return nil
}
