// Command spmvtune runs the Section 5 coordinated hardware-software tuning
// flow for one Table 4 matrix: sample the integrated SpMV-cache space, train
// inferred performance/power models, and tune the application (block size),
// the architecture (cache), or both.
//
//	spmvtune -matrix nasasrb
//	spmvtune -matrix raefsky3 -scale 4 -samples 600 -exhaustive
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"hsmodel/internal/genetic"
	"hsmodel/internal/spmv"
)

func main() {
	// ^C cancels in-flight training within one search generation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(exitCode(err, os.Stderr))
}

// exitCode returns the exit status for run's error, printing the error to
// stderr unless the flag set has reported it already: 0 on success or -h,
// 2 on a bad flag, 1 otherwise.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errBadFlag):
		return 2
	default:
		fmt.Fprintln(stderr, "spmvtune:", err)
		return 1
	}
}

// errBadFlag marks a flag the flag set refused, which it has already
// reported with the flag list; main exits 2 on it.
var errBadFlag = errors.New("spmvtune: bad flag")

// run tunes one matrix and prints the four strategies' choices to stdout;
// flag errors and -h go to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spmvtune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	matrix := fs.String("matrix", "raefsky3", "Table 4 matrix name")
	scale := fs.Int("scale", 16, "matrix scale divisor (1 = published size)")
	samples := fs.Int("samples", 300, "training samples for the inferred models")
	candidates := fs.Int("candidates", 150, "cache configurations considered per search")
	exhaustive := fs.Bool("exhaustive", false, "rank candidates by simulation instead of the inferred model")
	seed := fs.Uint64("seed", 7, "random seed")
	list := fs.Bool("list", false, "list matrices and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlag
	}

	if *list {
		for _, ms := range spmv.Corpus() {
			fmt.Fprintf(stdout, "%2d %-10s %7d x %-7d nnz %-8d sparsity %.2e\n",
				ms.Index, ms.Name, ms.N, ms.N, ms.NNZ,
				float64(ms.NNZ)/(float64(ms.N)*float64(ms.N)))
		}
		return nil
	}

	spec, err := spmv.ByName(*matrix)
	if err != nil {
		return err
	}
	spec = spec.Scaled(*scale)
	study := spmv.NewStudy(spec)
	fmt.Fprintf(stdout, "%s: %d x %d, %d non-zeros (fill at natural block %dx%d: %.3f)\n",
		spec.Name, study.M.Rows, study.M.Cols, study.M.NNZ(),
		spec.NBRow, spec.NBCol, study.FillRatio(max(spec.NBRow, 1), max(spec.NBCol, 1)))

	opts := spmv.TuneOptions{Study: study, CacheCandidates: *candidates, Seed: *seed}
	if !*exhaustive {
		fmt.Fprintf(stdout, "training the performance model on %d samples...\n", *samples)
		opts.Model, err = spmv.TrainDomainModel(ctx, spec.Name, study.Sample(*samples, *seed), spmv.PredictMFlops,
			genetic.Params{PopulationSize: 24, Generations: 10, Seed: *seed})
		if err != nil {
			return err
		}
	}

	res := spmv.Tune(opts)
	fmt.Fprintf(stdout, "\n%-13s %10s %10s %8s %s\n", "strategy", "Mflop/s", "speedup", "nJ/Flop", "choice")
	row := func(name string, c spmv.TuneChoice, speedup float64) {
		fmt.Fprintf(stdout, "%-13s %10.1f %9.2fx %8.1f %dx%d on %s\n",
			name, c.MFlops, speedup, c.NJFlop, c.R, c.C, c.Cfg)
	}
	row("baseline", res.Baseline, 1.0)
	row("app-tuned", res.AppTuned, res.AppSpeedup())
	row("arch-tuned", res.ArchTuned, res.ArchSpeedup())
	row("coordinated", res.Coordinated, res.CoordSpeedup())
	return nil
}
