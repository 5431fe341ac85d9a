// Command hsinfer is the integrated hardware-software modeling tool: it
// profiles workload shards, trains inferred performance models from sparse
// samples, persists them as JSON, and answers predictions.
//
//	hsinfer profile -app bzip2 -shards 5
//	hsinfer train   -samples 120 -out model.json
//	hsinfer predict -model model.json -app astar -shard 3
//	hsinfer predict -model model.json -app astar -shard 3 -arch 3,5,2,4,3,3,4,0,3,1,2,1,3
//	hsinfer model   -model model.json
//
// predict -json and model -json emit the same wire schema the hsserve HTTP
// service speaks (PredictResponse, ModelInfo, ErrorResponse), so scripted
// consumers can switch between the CLI and the service without reparsing.
// With -addr, predict and model drive a live hsserve instead of a local
// snapshot file, addressing one entry of the server's model registry:
// -model-id names it (an exact id, or the "app:<name>" alias for the entry
// scoped to that application, else the wildcard entry) and defaults to the
// server's own "default" entry:
//
//	hsinfer predict -addr http://localhost:8080 -app astar -shard 3
//	hsinfer model   -addr http://localhost:8080 -model-id app:bzip2
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"hsmodel/internal/isa"
	"hsmodel/internal/profile"
	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

func main() {
	// ^C cancels in-flight training within one search generation instead of
	// killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(exitCode(err, os.Stderr))
}

// exitCode returns the exit status for run's error, printing the error to
// stderr unless the flag set has reported it already: 0 on success or -h,
// 2 on a usage error, 1 otherwise.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errBadFlag):
		return 2
	case errors.Is(err, errUsage):
		fmt.Fprintln(stderr, err)
		return 2
	default:
		fmt.Fprintln(stderr, "hsinfer:", err)
		return 1
	}
}

// errUsage marks a command line hsinfer cannot act on; main exits 2 on it,
// as the flag package does for a bad flag.
var errUsage = errors.New("usage: hsinfer <profile|train|predict|model> [flags]")

// errBadFlag marks a flag a subcommand's flag set refused, which it has
// already reported with the flag list; main exits 2 on it.
var errBadFlag = errors.New("hsinfer: bad flag")

// run executes one subcommand: args[0] names it and the rest are its flags.
// Results go to stdout; progress, flag errors and -h go to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	switch args[0] {
	case "profile":
		return cmdProfile(args[1:], stdout, stderr)
	case "train":
		return cmdTrain(ctx, args[1:], stdout, stderr)
	case "predict":
		return cmdPredict(ctx, args[1:], stdout, stderr)
	case "model":
		return cmdModel(ctx, args[1:], stdout, stderr)
	}
	return errUsage
}

// parseFlags parses a subcommand's flags, reporting a bad flag or -h on
// stderr.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlag
	}
	return nil
}

// atLeast refuses a shard flag below min: there is no trace for a negative
// shard index or for fewer than one shard or instruction.
func atLeast(name string, v, min int) error {
	if v < min {
		return fmt.Errorf("-%s %d: want at least %d", name, v, min)
	}
	return nil
}

// jsonError writes err as the wire ErrorResponse on stdout and returns it,
// so a -json caller gets a body and main still exits 1.
func jsonError(stdout io.Writer, err error) error {
	if encErr := json.NewEncoder(stdout).Encode(hsmodel.ErrorResponse{Error: err.Error()}); encErr != nil {
		return errors.Join(err, encErr)
	}
	return err
}

func cmdProfile(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	appName := fs.String("app", "bzip2", "application name")
	shards := fs.Int("shards", 5, "number of shards to profile")
	shardLen := fs.Int("shardlen", hsmodel.DefaultShardLen, "shard length in instructions")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if err := errors.Join(atLeast("shards", *shards, 1), atLeast("shardlen", *shardLen, 1)); err != nil {
		return err
	}

	app, err := trace.ByName(*appName)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	profs := profile.StreamShards(app.Name, profile.ShardRange(*shards), func(s int) []isa.Inst {
		return app.ShardTrace(s, *shardLen)
	})
	for _, p := range profs {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return nil
}

func cmdTrain(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	samples := fs.Int("samples", 120, "training (shard, architecture) pairs per application")
	shardLen := fs.Int("shardlen", 50_000, "shard length in instructions")
	pop := fs.Int("pop", 36, "genetic population size")
	gens := fs.Int("gens", 12, "genetic generations")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "model.json", "output model path")
	timeout := fs.Duration("timeout", 0, "genetic search deadline before degrading to stepwise (0 = none)")
	families := fs.String("families", "", `model families to select among: "all", or a comma-separated subset of spline,residual,dal (empty = spline alone)`)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if err := errors.Join(atLeast("shardlen", *shardLen, 1), atLeast("pop", *pop, 1), atLeast("gens", *gens, 1)); err != nil {
		return err
	}

	opts := []hsmodel.Option{
		hsmodel.WithSearch(hsmodel.SearchParams{PopulationSize: *pop, Generations: *gens, Seed: *seed}),
		hsmodel.WithShardLen(*shardLen),
	}
	switch *families {
	case "":
	case "all":
		opts = append(opts, hsmodel.WithFamilySelection())
	default:
		var fams []hsmodel.ModelFamily
		for _, name := range strings.Split(*families, ",") {
			f := hsmodel.FamilyByName(strings.TrimSpace(name))
			if f == nil {
				return fmt.Errorf("unknown model family %q (have spline, residual, dal)", name)
			}
			fams = append(fams, f)
		}
		opts = append(opts, hsmodel.WithFamilies(fams...))
	}

	apps := trace.SPEC2006()
	col := &hsmodel.Collector{ShardLen: *shardLen}
	fmt.Fprintf(stderr, "collecting %d samples/app across %d applications...\n", *samples, len(apps))
	m := hsmodel.New(col.Collect(apps, *samples, *seed), opts...)
	fmt.Fprintln(stderr, "training...")
	// Train walks the degradation ladder: the selection round (bounded by
	// -timeout), then stepwise. When both rungs fail, a model that loads from
	// -out stays the last-good one. See DESIGN.md "Failure modes".
	m.SearchTimeout = *timeout
	if err := m.Train(ctx); err != nil {
		if _, loadErr := hsmodel.LoadSnapshot(*out); loadErr != nil {
			return err
		}
		fmt.Fprintf(stderr, "training failed: %v\n", err)
		fmt.Fprintf(stdout, "kept existing model at %s\n", *out)
		return nil
	}
	rep := m.Report()
	fmt.Fprintln(stderr, rep)
	names := make([]string, 0, len(rep.FamilyScores))
	for name := range rep.FamilyScores {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stderr, "family %-9s CV MedAPE %.4f\n", name, rep.FamilyScores[name])
	}
	failed := make([]string, 0, len(rep.FamilyErrors))
	for name := range rep.FamilyErrors {
		failed = append(failed, name)
	}
	sort.Strings(failed)
	for _, name := range failed {
		fmt.Fprintf(stderr, "family %-9s failed: %v\n", name, rep.FamilyErrors[name])
	}
	if rep.Rung == hsmodel.RungGenetic {
		fmt.Fprintf(stderr, "selected family: %s\n", rep.Family)
	}
	if pop := m.Population(); len(pop) > 0 {
		fmt.Fprintf(stderr, "best fitness %.4f, spec: %s\n", pop[0].Fitness, pop[0].Spec)
	}

	if err := m.Snapshot().Save(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "model written to %s\n", *out)
	return nil
}

// parseArch converts the CLI's comma-separated Table 2 level indices through
// the same validation path as the wire schema's `arch` field.
func parseArch(arch string) (hsmodel.Config, error) {
	if arch == "" {
		return hsmodel.Baseline(), nil
	}
	parts := strings.Split(arch, ",")
	ix := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return hsmodel.Config{}, err
		}
		ix[i] = v
	}
	return hsmodel.ConfigFromArch(ix)
}

func cmdPredict(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	modelPath := fs.String("model", "model.json", "trained model path")
	addr := fs.String("addr", "", "ask a live hsserve at this base URL instead of loading -model")
	modelID := fs.String("model-id", hsmodel.DefaultModelID, "with -addr: the registry entry to address (exact id or app:<name>)")
	appName := fs.String("app", "astar", "application name")
	shard := fs.Int("shard", 0, "shard index")
	shardLen := fs.Int("shardlen", hsmodel.DefaultShardLen, "with -addr: shard length in instructions (local mode uses the model's)")
	arch := fs.String("arch", "", "13 comma-separated Table 2 level indices (default: baseline)")
	check := fs.Bool("check", true, "also simulate the pair and report error")
	asJSON := fs.Bool("json", false, "emit the wire-schema PredictResponse (errors as ErrorResponse)")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}

	err := predict(ctx, stdout, *modelPath, *addr, *modelID, *appName, *shard, *shardLen, *arch, *check, *asJSON)
	if err != nil && *asJSON {
		return jsonError(stdout, err)
	}
	return err
}

func predict(ctx context.Context, stdout io.Writer, modelPath, addr, modelID, appName string, shard, shardLen int, arch string, check, asJSON bool) error {
	if err := errors.Join(atLeast("shard", shard, 0), atLeast("shardlen", shardLen, 1)); err != nil {
		return err
	}
	var snap *hsmodel.Snapshot
	if addr == "" {
		var err error
		snap, err = hsmodel.LoadSnapshot(modelPath)
		if err != nil {
			return err
		}
		shardLen = snap.ShardLen()
	}

	app, err := trace.ByName(appName)
	if err != nil {
		return err
	}
	hw, err := parseArch(arch)
	if err != nil {
		return err
	}

	p := profile.Stream(&isa.SliceStream{Insts: app.ShardTrace(shard, shardLen)}, app.Name, shard)
	var pred float64
	if addr == "" {
		pred, err = snap.PredictShard(p.X, hw)
	} else {
		client := hsmodel.NewClient(addr).Model(modelID)
		var resp hsmodel.PredictResponse
		resp, err = client.Predict(ctx, hsmodel.PredictRequest{X: p.X[:], Config: &hw})
		pred = resp.CPI
	}
	if err != nil {
		return err
	}
	if asJSON {
		return json.NewEncoder(stdout).Encode(hsmodel.PredictResponse{CPI: pred, Shards: 1})
	}
	fmt.Fprintf(stdout, "%s shard %d on %s\n", app.Name, shard, hw)
	fmt.Fprintf(stdout, "  predicted CPI: %.4f\n", pred)
	if check {
		col := &hsmodel.Collector{ShardLen: shardLen}
		truth := col.CollectPairs([]*trace.App{app}, []int{0}, []int{shard}, []hsmodel.Config{hw})[0].CPI
		errPct := 100 * (pred - truth) / truth
		fmt.Fprintf(stdout, "  simulated CPI: %.4f (prediction error %+.1f%%)\n", truth, errPct)
	}
	return nil
}

func cmdModel(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("model", flag.ContinueOnError)
	modelPath := fs.String("model", "model.json", "trained model path")
	addr := fs.String("addr", "", "ask a live hsserve at this base URL instead of loading -model")
	modelID := fs.String("model-id", hsmodel.DefaultModelID, "with -addr: the registry entry to address (exact id or app:<name>)")
	asJSON := fs.Bool("json", false, "emit the wire-schema ModelInfo (errors as ErrorResponse)")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}

	info, err := modelInfo(ctx, *modelPath, *addr, *modelID)
	if err != nil {
		if *asJSON {
			return jsonError(stdout, err)
		}
		return err
	}
	if *asJSON {
		return json.NewEncoder(stdout).Encode(info)
	}
	source := *modelPath
	if *addr != "" {
		source = *addr + " model " + info.Model
	}
	fmt.Fprintf(stdout, "model %s\n", source)
	if info.Application != "" {
		fmt.Fprintf(stdout, "  application:  %s\n", info.Application)
	}
	if !info.Trained {
		fmt.Fprintln(stdout, "  trained:      false")
		return nil
	}
	fmt.Fprintf(stdout, "  family:       %s\n", info.Family)
	fmt.Fprintf(stdout, "  rung:         %s\n", info.Rung)
	fmt.Fprintf(stdout, "  trained rows: %d\n", info.TrainedRows)
	fmt.Fprintf(stdout, "  shard length: %d\n", info.ShardLen)
	fmt.Fprintf(stdout, "  terms:        %d\n", info.Terms)
	fmt.Fprintf(stdout, "  spec:         %s\n", info.Spec)
	if info.Detail != "" {
		fmt.Fprintf(stdout, "  detail:       %s\n", info.Detail)
	}
	if len(info.FamilyScores) > 0 {
		names := make([]string, 0, len(info.FamilyScores))
		for name := range info.FamilyScores {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stdout, "  score[%s]: %.4f\n", name, info.FamilyScores[name])
		}
	}
	return nil
}

// modelInfo assembles the wire ModelInfo either from a local snapshot file or
// from a live server's /v2/models/{id}/model route.
func modelInfo(ctx context.Context, modelPath, addr, modelID string) (hsmodel.ModelInfo, error) {
	if addr != "" {
		return hsmodel.NewClient(addr).Model(modelID).ModelInfo(ctx)
	}
	snap, err := hsmodel.LoadSnapshot(modelPath)
	if err != nil {
		return hsmodel.ModelInfo{}, err
	}
	return hsmodel.SnapshotInfo(snap), nil
}
