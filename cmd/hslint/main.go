// Command hslint is the repo's invariant checker: a stdlib-only multichecker
// over the analyzers in internal/analysis. It enforces, at CI time, the
// contracts the engine's correctness rests on — the trainer's lock order,
// snapshot immutability, search determinism, errors.Is matching, float
// comparison discipline, context propagation, goroutine lifecycle, atomic
// publication, and bounded container growth. See DESIGN.md §10 and §15.
//
// Usage:
//
//	hslint ./...                      lint packages (go list patterns)
//	hslint -dir path/to/testdata      lint loose directories (testdata trees
//	                                  the go tool will not enumerate)
//	hslint -checks floateq,errcmp ./...
//	hslint -format sarif ./...        SARIF 2.1.0 on stdout (CI annotations)
//	hslint -list                      machine-readable check listing
//
// Diagnostics print as file:line:col: message [check]. Exit status: 0
// clean, 1 diagnostics reported, 2 usage or load failure.
//
// A finding is either fixed or suppressed at its site, by an in-line
// directive carrying a mandatory reason:
//
//	//hslint:ignore <check> <reason>
//
// Unknown check names, missing reasons, and stale directives are themselves
// diagnostics, so suppressions cannot rot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hsmodel/internal/analysis"
)

func main() {
	os.Exit(exitCode(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// exitCode returns the exit status for run's error, printing the error to
// stderr unless it has been reported already: 0 on success or -h, 1 on
// findings, 2 on a usage or load failure.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFindings):
		return 1
	case errors.Is(err, errBadFlag):
		return 2
	default:
		fmt.Fprintln(stderr, "hslint:", err)
		return 2
	}
}

// errFindings reports diagnostics, already printed; main exits 1 on it.
var errFindings = errors.New("hslint: findings reported")

// errBadFlag marks a flag the flag set refused, which it has already
// reported with the flag list; main exits 2 on it.
var errBadFlag = errors.New("hslint: bad flag")

// errUsage marks a command line hslint cannot act on; main exits 2 on it,
// as on a load failure.
var errUsage = errors.New("usage: hslint [-dir] [-checks c1,c2] [-list] [-format text|sarif] patterns...")

// run lints the packages or directories args name and prints diagnostics to
// stdout; flag errors and -h go to stderr. Linting has nothing to cancel, so
// ctx goes unused.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dirMode := fs.Bool("dir", false, "treat arguments as directories of Go files (testdata trees) instead of package patterns")
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks (name<TAB>doc per line) and exit")
	format := fs.String("format", "text", "output format: text or sarif")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlag
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%s\t%s\n", a.Name, a.Doc)
		}
		return nil
	}
	if fs.NArg() == 0 {
		return errUsage
	}
	if *format != "text" && *format != "sarif" {
		return fmt.Errorf("unknown format %q (available: text, sarif)", *format)
	}

	var names []string
	if *checks != "" {
		names = strings.Split(*checks, ",")
	}
	analyzers, err := analysis.Select(names)
	if err != nil {
		return err
	}

	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	loader := analysis.NewLoader(cwd)

	var pkgs []*analysis.Package
	if *dirMode {
		for _, dir := range fs.Args() {
			loaded, err := loader.LoadDir(dir)
			if err != nil {
				return err
			}
			pkgs = append(pkgs, loaded...)
		}
	} else {
		pkgs, err = loader.LoadPackages(fs.Args()...)
		if err != nil {
			return err
		}
	}

	diags := analysis.Run(pkgs, analyzers)

	if *format == "sarif" {
		out, err := analysis.SARIF(diags, analyzers, cwd)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return errFindings
	}
	return nil
}
