// Command hsserve is the HTTP prediction service: it serves single-shard and
// whole-application CPI predictions from a trained snapshot (a single
// predict answers on its own request; concurrent predict:batch requests are
// coalesced into shared model passes), absorbs new profiles into
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
// SIGINT/SIGTERM shut down gracefully, draining in-flight predict:batch jobs. The log
// names the address the listener bound, so -addr 127.0.0.1:0 picks a free
// port and reports it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
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
	// SIGINT/SIGTERM cancel run's context, which drains the server.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	signal.Notify(sighup, syscall.SIGHUP)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(exitCode(err, os.Stderr))
}

// exitCode returns the exit status for run's error, printing the error to
// stderr unless the flag set has reported it already: 0 on a drained
// shutdown or -h, 2 on a bad flag, 1 otherwise.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errBadFlag):
		return 2
	default:
		fmt.Fprintln(stderr, "hsserve:", err)
		return 1
	}
}

// sighup receives the SIGHUPs main routes to the process; run reloads
// -model on each.
var sighup = make(chan os.Signal, 1)

// errBadFlag marks a flag the flag set refused, which it has already
// reported with the flag list; main exits 2 on it.
var errBadFlag = errors.New("hsserve: bad flag")

// run serves until ctx is cancelled, then drains in-flight requests and
// batches and returns nil. It logs to stderr, where flag errors and -h go
// too.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("hsserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	modelPath := fs.String("model", "", "snapshot file to serve (reloaded on SIGHUP)")
	bootstrap := fs.Bool("bootstrap", false, "collect samples and train a model before serving")
	samples := fs.Int("samples", 40, "bootstrap: (shard, architecture) samples per application")
	apps := fs.Int("apps", 3, "bootstrap: number of SPEC2006 applications to profile (1-7)")
	pop := fs.Int("pop", 24, "bootstrap: genetic population size")
	gens := fs.Int("gens", 8, "bootstrap: genetic generations")
	seed := fs.Uint64("seed", 1, "bootstrap: random seed")
	shardLen := fs.Int("shardlen", 50_000, "bootstrap: shard length in instructions")
	maxBatch := fs.Int("max-batch", 32, "batcher jobs coalesced into one flush (a predict:batch request is one job; a single predict never joins one)")
	maxWait := fs.Duration("max-wait", 2*time.Millisecond, "batcher wait to fill a flush of predict:batch jobs (a single predict never waits)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	lifecycleOn := fs.Bool("lifecycle", false, "run the continuous-learning control loop on the default model's samples (bounded stores, drift detection, canary-gated retrains; needs -bootstrap or -model)")
	driftThreshold := fs.Float64("drift-threshold", 0, "lifecycle: accumulated excess error (CUSUM mass) that trips the drift detector (0 = default)")
	minProfiles := fs.Int("min-profiles", 0, "lifecycle: fresh post-drift profiles required before a shadow retrain (0 = default)")
	canaryTolerance := fs.Float64("canary-tolerance", 0, "lifecycle: relative slack a candidate gets on the canary set before promotion (0 = default)")
	modelsPath := fs.String("models", "", "multi-model manifest (JSON, wire Manifest schema): its entries are registered at boot and the file is rewritten after every successful /v2/models register/unregister")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlag
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"shardlen", *shardLen}, {"pop", *pop}, {"gens", *gens}} {
		if f.v < 1 {
			return fmt.Errorf("-%s %d: want at least 1", f.name, f.v)
		}
	}

	logger := log.New(stderr, "hsserve: ", log.LstdFlags)

	tr := hsmodel.New(nil, hsmodel.WithSeed(*seed), hsmodel.WithShardLen(*shardLen))
	if *bootstrap {
		if err := bootstrapTrain(ctx, tr, *apps, *samples, *pop, *gens, *seed, *shardLen, logger); err != nil {
			return err
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
		return err
	}
	defer srv.Close()
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

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.Printf("listening on %s", ln.Addr())

	for {
		select {
		case err := <-errc:
			return err
		case <-sighup:
			if err := srv.Reload(); err != nil {
				logger.Printf("SIGHUP reload failed, serving previous model: %v", err)
			}
		case <-ctx.Done():
			logger.Println("draining...")
			sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 15*time.Second)
			if err := hs.Shutdown(sctx); err != nil {
				logger.Printf("shutdown: %v", err)
			}
			cancel()
			srv.Close() // answer everything the batcher accepted
			logger.Println("drained, bye")
			return nil
		}
	}
}

// bootstrapTrain collects simulated sparse profiles from the first nApps
// SPEC2006 applications and trains the serving model in-process, so hsserve
// can run without a model file.
func bootstrapTrain(ctx context.Context, tr *hsmodel.Trainer, nApps, samples, pop, gens int, seed uint64, shardLen int, logger *log.Logger) error {
	all := trace.SPEC2006()
	if nApps < 1 || nApps > len(all) {
		return fmt.Errorf("-apps %d: want 1 to %d", nApps, len(all))
	}
	col := &hsmodel.Collector{ShardLen: shardLen}
	logger.Printf("bootstrap: collecting %d samples/app from %d applications...", samples, nApps)
	tr.SetSamples(col.Collect(all[:nApps], samples, seed))
	tr.Search = hsmodel.SearchParams{PopulationSize: pop, Generations: gens, Seed: seed}
	logger.Printf("bootstrap: training (pop %d, %d generations)...", pop, gens)
	start := time.Now()
	if err := tr.Train(ctx); err != nil {
		return fmt.Errorf("bootstrap training failed: %w", err)
	}
	snap := tr.Snapshot()
	logger.Printf("bootstrap: trained via %s on %d rows in %s, family %s, spec %s",
		snap.Rung(), snap.TrainedRows(), time.Since(start).Round(time.Millisecond),
		snap.Family(), snap.Describe().Spec)
	return nil
}
