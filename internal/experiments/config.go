// Package experiments regenerates every table and figure in the paper's
// evaluation (Sections 4 and 5). Each experiment is a pure function of a
// Config, returning a structured result that renders as the paper's
// table/series and that the benchmark harness and integration tests assert
// against.
//
// Scale: Quick() runs the full set in minutes on one core by shortening
// shards and shrinking sample counts; Paper() uses the paper's dimensions
// (10M-instruction shards, ~360 architectures per application, 400+100
// SpMV samples). Shapes — medians, correlations, speedup ratios, topology
// peaks — are the reproduction target at either scale.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"

	"hsmodel/internal/core"
	"hsmodel/internal/genetic"
	"hsmodel/internal/trace"
)

// Config scales and seeds the experiment suite.
type Config struct {
	// ShardLen is the shard length in dynamic instructions.
	ShardLen int
	// ShardPool is the number of distinct shards sampled per application.
	ShardPool int
	// TrainPerApp is the number of (shard, architecture) training profiles
	// per application (the paper: "on average, each of 7 applications is
	// profiled on 360 architectures").
	TrainPerApp int
	// ValidationPairs is the held-out pair count for accuracy studies
	// (the paper validates against 140).
	ValidationPairs int
	// Pop and Generations size the genetic search.
	Pop, Generations int
	// SpmvScale divides Table 4 matrix sizes; SpmvTrain/SpmvValidation are
	// per-matrix sample counts (the paper: 400 train, 100 validation).
	SpmvScale                 int
	SpmvTrain, SpmvValidation int
	Seed                      uint64
	// Out receives human-readable tables; nil discards them.
	Out io.Writer
}

// Quick returns the reduced scale used by `go test -bench` and the default
// CLI: minutes, not hours, on one core.
func Quick() Config {
	return Config{
		ShardLen:        50_000,
		ShardPool:       60,
		TrainPerApp:     120,
		ValidationPairs: 140,
		Pop:             36,
		Generations:     12,
		SpmvScale:       16,
		SpmvTrain:       400,
		SpmvValidation:  100,
		Seed:            1,
		Out:             os.Stdout,
	}
}

// Paper returns the paper-scale configuration. Expect hours of simulation.
func Paper() Config {
	c := Quick()
	c.ShardLen = core.PaperShardLen
	c.TrainPerApp = 360
	c.Pop = 60
	c.Generations = 20
	c.SpmvScale = 1
	return c
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) collector() *core.Collector {
	return &core.Collector{ShardLen: c.ShardLen, ShardPool: c.ShardPool}
}

func (c Config) searchParams(seed uint64) genetic.Params {
	return genetic.Params{
		PopulationSize: c.Pop,
		Generations:    c.Generations,
		Seed:           c.Seed ^ seed,
	}
}

// Workspace caches the artifacts shared between experiments — the sparse
// training profiles and the steady-state model — so `experiments all`
// collects and trains once.
type Workspace struct {
	Cfg   Config
	ctx   context.Context
	apps  []*trace.App
	train []core.Sample
	valid []core.Sample
	model *core.Trainer
}

// NewWorkspace prepares a lazy workspace over the seven SPEC2006 stand-ins.
func NewWorkspace(cfg Config) *Workspace {
	return NewWorkspaceContext(context.Background(), cfg)
}

// NewWorkspaceContext is NewWorkspace with a cancellation context: every
// training run the workspace performs is bounded by ctx, so an interrupted
// `experiments all` stops within one search generation.
func NewWorkspaceContext(ctx context.Context, cfg Config) *Workspace {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Workspace{Cfg: cfg, ctx: ctx, apps: trace.SPEC2006()}
}

// Context returns the workspace's cancellation context.
func (w *Workspace) Context() context.Context { return w.ctx }

// Apps returns the workload roster.
func (w *Workspace) Apps() []*trace.App { return w.apps }

// TrainingSamples collects (once) the sparse training profiles.
func (w *Workspace) TrainingSamples() []core.Sample {
	if w.train == nil {
		w.train = w.Cfg.collector().Collect(w.apps, w.Cfg.TrainPerApp, w.Cfg.Seed)
	}
	return w.train
}

// ValidationSamples collects (once) held-out validation profiles, sampled
// independently of training.
func (w *Workspace) ValidationSamples() []core.Sample {
	if w.valid == nil {
		perApp := (w.Cfg.ValidationPairs + len(w.apps) - 1) / len(w.apps)
		w.valid = w.Cfg.collector().Collect(w.apps, perApp, w.Cfg.Seed^0xFACE)
		if len(w.valid) > w.Cfg.ValidationPairs {
			w.valid = w.valid[:w.Cfg.ValidationPairs]
		}
	}
	return w.valid
}

// Model trains (once) the steady-state integrated model.
func (w *Workspace) Model() (*core.Trainer, error) {
	if w.model == nil {
		m, err := w.trainOn(w.TrainingSamples(), 0x5EED, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: steady-state training: %w", err)
		}
		w.model = m
	}
	return w.model, nil
}

// trainOn fits a new trainer to samples under the suite's genetic search,
// seeded by seed and bounded by the workspace context. tune, when not nil,
// sets the trainer's search or modeling knobs before it trains.
func (w *Workspace) trainOn(samples []core.Sample, seed uint64, tune func(*core.Trainer)) (*core.Trainer, error) {
	m := core.NewTrainer(samples)
	m.Search = w.Cfg.searchParams(seed)
	if tune != nil {
		tune(m)
	}
	if err := m.Train(w.ctx); err != nil {
		return nil, err
	}
	return m, nil
}
