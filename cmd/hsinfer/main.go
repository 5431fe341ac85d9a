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
	"flag"
	"fmt"
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
	if len(os.Args) < 2 {
		usage()
	}
	// ^C cancels in-flight training within one search generation instead of
	// killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "train":
		err = cmdTrain(ctx, os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "model":
		err = cmdModel(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsinfer:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hsinfer <profile|train|predict|model> [flags]")
	os.Exit(2)
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	appName := fs.String("app", "bzip2", "application name")
	shards := fs.Int("shards", 5, "number of shards to profile")
	shardLen := fs.Int("shardlen", hsmodel.DefaultShardLen, "shard length in instructions")
	fs.Parse(args)

	app, err := trace.ByName(*appName)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	profs := profile.StreamShards(app.Name, profile.ShardRange(*shards), func(s int) isa.Stream {
		return app.ShardStream(s, *shardLen)
	})
	for _, p := range profs {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return nil
}

func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	samples := fs.Int("samples", 120, "training (shard, architecture) pairs per application")
	shardLen := fs.Int("shardlen", 50_000, "shard length in instructions")
	pop := fs.Int("pop", 36, "genetic population size")
	gens := fs.Int("gens", 12, "genetic generations")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "model.json", "output model path")
	timeout := fs.Duration("timeout", 0, "genetic search deadline before degrading to stepwise (0 = none)")
	families := fs.String("families", "", `model families to select among: "all", or a comma-separated subset of spline,residual,dal (empty = spline alone)`)
	fs.Parse(args)

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
	fmt.Fprintf(os.Stderr, "collecting %d samples/app across %d applications...\n", *samples, len(apps))
	m := hsmodel.New(col.Collect(apps, *samples, *seed), opts...)
	fmt.Fprintln(os.Stderr, "training...")
	// Degradation ladder: genetic search, then stepwise, then the last-good
	// model already at -out (if any). See DESIGN.md "Failure modes".
	rep, err := m.TrainResilient(ctx, hsmodel.Resilience{
		SearchTimeout: *timeout,
		LastGoodPath:  *out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, rep)
	if rep.Rung == hsmodel.RungLastGood {
		// The model on disk is already the one being served; do not rewrite it.
		fmt.Fprintf(os.Stderr, "keeping existing model at %s\n", *out)
		return nil
	}
	if sel := m.Selection(); sel != nil {
		names := make([]string, 0, len(sel.Scores))
		for name := range sel.Scores {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "family %-9s CV MedAPE %.4f\n", name, sel.Scores[name])
		}
		failed := make([]string, 0, len(sel.Errors))
		for name := range sel.Errors {
			failed = append(failed, name)
		}
		sort.Strings(failed)
		for _, name := range failed {
			fmt.Fprintf(os.Stderr, "family %-9s failed: %v\n", name, sel.Errors[name])
		}
		if sel.Winner != "" {
			fmt.Fprintf(os.Stderr, "selected family: %s\n", sel.Winner)
		}
	}
	if pop := m.Population(); len(pop) > 0 {
		fmt.Fprintf(os.Stderr, "best fitness %.4f, spec: %s\n", pop[0].Fitness, pop[0].Spec)
	}

	if err := m.Save(*out, *shardLen); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "model written to %s\n", *out)
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

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model path")
	addr := fs.String("addr", "", "ask a live hsserve at this base URL instead of loading -model")
	modelID := fs.String("model-id", hsmodel.DefaultModelID, "with -addr: the registry entry to address (exact id or app:<name>)")
	appName := fs.String("app", "astar", "application name")
	shard := fs.Int("shard", 0, "shard index")
	shardLen := fs.Int("shardlen", hsmodel.DefaultShardLen, "with -addr: shard length in instructions (local mode uses the model's)")
	arch := fs.String("arch", "", "13 comma-separated Table 2 level indices (default: baseline)")
	check := fs.Bool("check", true, "also simulate the pair and report error")
	asJSON := fs.Bool("json", false, "emit the wire-schema PredictResponse (errors as ErrorResponse)")
	fs.Parse(args)

	err := predict(*modelPath, *addr, *modelID, *appName, *shard, *shardLen, *arch, *check, *asJSON)
	if err != nil && *asJSON {
		json.NewEncoder(os.Stdout).Encode(hsmodel.ErrorResponse{Error: err.Error()})
		os.Exit(1)
	}
	return err
}

func predict(modelPath, addr, modelID, appName string, shard, shardLen int, arch string, check, asJSON bool) error {
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

	p := profile.Stream(app.ShardStream(shard, shardLen), app.Name, shard)
	var pred float64
	if addr == "" {
		pred, err = snap.PredictShard(p.X, hw)
	} else {
		client := hsmodel.NewClient(addr).Model(modelID)
		var resp hsmodel.PredictResponse
		resp, err = client.Predict(context.Background(), hsmodel.PredictRequest{X: p.X[:], Config: &hw})
		pred = resp.CPI
	}
	if err != nil {
		return err
	}
	if asJSON {
		return json.NewEncoder(os.Stdout).Encode(hsmodel.PredictResponse{CPI: pred, Shards: 1})
	}
	fmt.Printf("%s shard %d on %s\n", app.Name, shard, hw)
	fmt.Printf("  predicted CPI: %.4f\n", pred)
	if check {
		col := &hsmodel.Collector{ShardLen: shardLen}
		truth := col.CollectPairs([]*trace.App{app}, []int{0}, []int{shard}, []hsmodel.Config{hw})[0].CPI
		errPct := 100 * (pred - truth) / truth
		fmt.Printf("  simulated CPI: %.4f (prediction error %+.1f%%)\n", truth, errPct)
	}
	return nil
}

func cmdModel(args []string) error {
	fs := flag.NewFlagSet("model", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model path")
	addr := fs.String("addr", "", "ask a live hsserve at this base URL instead of loading -model")
	modelID := fs.String("model-id", hsmodel.DefaultModelID, "with -addr: the registry entry to address (exact id or app:<name>)")
	asJSON := fs.Bool("json", false, "emit the wire-schema ModelInfo (errors as ErrorResponse)")
	fs.Parse(args)

	info, err := modelInfo(*modelPath, *addr, *modelID)
	if err != nil {
		if *asJSON {
			json.NewEncoder(os.Stdout).Encode(hsmodel.ErrorResponse{Error: err.Error()})
			os.Exit(1)
		}
		return err
	}
	if *asJSON {
		return json.NewEncoder(os.Stdout).Encode(info)
	}
	source := *modelPath
	if *addr != "" {
		source = *addr + " model " + info.Model
	}
	fmt.Printf("model %s\n", source)
	if info.Application != "" {
		fmt.Printf("  application:  %s\n", info.Application)
	}
	if !info.Trained {
		fmt.Println("  trained:      false")
		return nil
	}
	fmt.Printf("  family:       %s\n", info.Family)
	fmt.Printf("  rung:         %s\n", info.Rung)
	fmt.Printf("  trained rows: %d\n", info.TrainedRows)
	fmt.Printf("  shard length: %d\n", info.ShardLen)
	fmt.Printf("  terms:        %d\n", info.Terms)
	fmt.Printf("  spec:         %s\n", info.Spec)
	if info.Detail != "" {
		fmt.Printf("  detail:       %s\n", info.Detail)
	}
	if len(info.FamilyScores) > 0 {
		names := make([]string, 0, len(info.FamilyScores))
		for name := range info.FamilyScores {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  score[%s]: %.4f\n", name, info.FamilyScores[name])
		}
	}
	return nil
}

// modelInfo assembles the wire ModelInfo either from a local snapshot file or
// from a live server's /v2/models/{id}/model route.
func modelInfo(modelPath, addr, modelID string) (hsmodel.ModelInfo, error) {
	if addr != "" {
		client := hsmodel.NewClient(addr).Model(modelID)
		return client.ModelInfo(context.Background())
	}
	snap, err := hsmodel.LoadSnapshot(modelPath)
	if err != nil {
		return hsmodel.ModelInfo{}, err
	}
	desc := snap.Describe()
	return hsmodel.ModelInfo{
		Trained:      true,
		Family:       snap.Family(),
		FamilyScores: snap.FamilyScores(),
		Spec:         desc.Spec,
		Terms:        desc.Terms,
		Detail:       desc.Detail,
		Rung:         snap.Rung().String(),
		TrainedRows:  snap.TrainedRows(),
		ShardLen:     snap.ShardLen(),
	}, nil
}
