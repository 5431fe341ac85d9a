// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags] <id>...
//	experiments -list
//	experiments all
//
// IDs: fig3 fig4 fig5 table3 fig7a fig7b fig7c fig9 fig10 fig12 fig13 fig14
// fig15 fig16 partime costs manual ablations (fig8a, fig8b and fig8c name
// fig7a, fig7b and fig7c). The search-anatomy trio (fig4, fig5, table3)
// shares one genetic search.
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
	"time"

	"hsmodel/internal/experiments"
)

func main() {
	// ^C cancels the running experiment within one search generation.
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
		fmt.Fprintln(stderr, err)
		return 1
	}
}

// errUsage marks a command line experiments cannot act on; main exits 2 on
// it, as the flag package does for a bad flag.
var errUsage = errors.New("usage: experiments [-paper] [-seed N] <id>...|all  (see -list)")

// errBadFlag marks a flag the flag set refused, which it has already
// reported with the flag list; main exits 2 on it.
var errBadFlag = errors.New("experiments: bad flag")

// experiment is one id the command runs, in the order -list and "all" use.
type experiment struct {
	id  string
	run func(*experiments.Workspace) error
}

var table = []experiment{
	{"fig3", func(w *experiments.Workspace) error { experiments.Fig3(w); return nil }},
	{"fig5", errOnly(experiments.SearchAnatomy)},
	{"fig4", errOnly(experiments.SearchAnatomy)},
	{"table3", errOnly(experiments.SearchAnatomy)},
	{"fig7a", errOnly(experiments.Fig7a)},
	{"fig10", errOnly(experiments.Fig10)},
	{"fig7b", errOnly(experiments.Fig7b)},
	{"fig7c", errOnly(experiments.Fig7c)},
	{"fig9", func(w *experiments.Workspace) error { experiments.Fig9(w); return nil }},
	{"partime", func(w *experiments.Workspace) error { experiments.ParTime(w, []int{1, 2, 4, 8}); return nil }},
	{"costs", errOnly(experiments.Costs)},
	{"manual", errOnly(experiments.Manual)},
	{"fig12", errOnly(experiments.Fig12)},
	{"fig13", errOnly(experiments.Fig13)},
	{"fig14", errOnly(experiments.Fig14)},
	{"fig15", errOnly(experiments.Fig15)},
	{"fig16", errOnly(experiments.Fig16)},
	{"ablations", func(w *experiments.Workspace) error {
		for _, f := range []func(*experiments.Workspace) (experiments.AblationResult, error){
			experiments.AblationStabilization,
			experiments.AblationInteractions,
			experiments.AblationSharding,
			experiments.AblationStepwise,
			experiments.AblationDomainSpecific,
			experiments.AblationLogResponse,
		} {
			if _, err := f(w); err != nil {
				return err
			}
		}
		return nil
	}},
}

// aliases name the paper's Figure 8 panels, which the Figure 7 runs print.
var aliases = map[string]string{"fig8a": "fig7a", "fig8b": "fig7b", "fig8c": "fig7c"}

// errOnly drops an experiment's result: its tables are already printed.
func errOnly[T any](f func(*experiments.Workspace) (T, error)) func(*experiments.Workspace) error {
	return func(w *experiments.Workspace) error {
		_, err := f(w)
		return err
	}
}

// lookup resolves an id or alias to its table entry.
func lookup(id string) (experiment, error) {
	if to, ok := aliases[id]; ok {
		id = to
	}
	for _, e := range table {
		if e.id == id {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("unknown experiment %q (see -list)", id)
}

// run executes the named experiments in order, printing their tables and a
// completion line each to stdout; flag errors and -h go to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	paper := fs.Bool("paper", false, "run at paper scale (hours) instead of quick scale (minutes)")
	seed := fs.Uint64("seed", 1, "master random seed")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlag
	}
	if *list {
		for _, e := range table {
			fmt.Fprintln(stdout, e.id)
		}
		return nil
	}

	var exps []experiment
	switch ids := fs.Args(); {
	case len(ids) == 0:
		return errUsage
	case len(ids) == 1 && ids[0] == "all":
		exps = table
	default:
		for _, id := range ids {
			e, err := lookup(id)
			if err != nil {
				return err
			}
			e.id = id // report an alias under the name asked for
			exps = append(exps, e)
		}
	}

	cfg := experiments.Quick()
	if *paper {
		cfg = experiments.Paper()
	}
	cfg.Seed = *seed
	cfg.Out = stdout
	w := experiments.NewWorkspaceContext(ctx, cfg)
	for _, e := range exps {
		start := time.Now()
		if err := e.run(w); err != nil {
			return fmt.Errorf("experiment %s: %w", e.id, err)
		}
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
