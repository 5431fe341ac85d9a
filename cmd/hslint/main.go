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
//	hslint -fix -diff ./...           show the diff -fix would apply
//	hslint -fix ./...                 apply suggested fixes in place
//	hslint -format sarif ./...        SARIF 2.1.0 on stdout (CI annotations)
//	hslint -baseline .hslint-baseline.json ./...
//	hslint -write-baseline .hslint-baseline.json ./...
//	hslint -list                      machine-readable check listing
//
// Diagnostics print as file:line:col: message [check]. With -baseline,
// findings recorded in the baseline are reported with a "(baselined)"
// suffix and do not fail the run; fresh findings do. So does a stale
// baseline entry, one that matches no live finding although its check ran
// and its file was analyzed: it is reported on stderr so the baseline
// cannot keep forgiving a finding that is gone. Exit status: 0 clean (or
// all findings baselined), 1 fresh diagnostics or stale baseline entries
// reported, 2 usage or load failure.
//
// A site may suppress one diagnostic with an in-line directive carrying a
// mandatory reason:
//
//	//hslint:ignore <check> <reason>
//
// Unknown check names, missing reasons, and stale directives are themselves
// diagnostics, so suppressions cannot rot.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hsmodel/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		dirMode   = flag.Bool("dir", false, "treat arguments as directories of Go files (testdata trees) instead of package patterns")
		checks    = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		list      = flag.Bool("list", false, "list available checks (name<TAB>doc per line) and exit")
		fix       = flag.Bool("fix", false, "apply suggested fixes to the source tree")
		diff      = flag.Bool("diff", false, "with -fix, print the diff instead of writing files")
		format    = flag.String("format", "text", "output format: text or sarif")
		baseline  = flag.String("baseline", "", "baseline file of grandfathered findings; fresh findings still fail")
		writeBase = flag.String("write-baseline", "", "write current findings to this baseline file and exit 0")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%s\t%s\n", a.Name, a.Doc)
		}
		return 0
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: hslint [-dir] [-checks c1,c2] [-fix [-diff]] [-format text|sarif] [-baseline file | -write-baseline file] patterns...")
		return 2
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "hslint: unknown format %q (available: text, sarif)\n", *format)
		return 2
	}

	var names []string
	if *checks != "" {
		names = strings.Split(*checks, ",")
	}
	analyzers, err := analysis.Select(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hslint:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hslint:", err)
		return 2
	}
	loader := analysis.NewLoader(cwd)

	var pkgs []*analysis.Package
	if *dirMode {
		for _, dir := range flag.Args() {
			loaded, err := loader.LoadDir(dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hslint:", err)
				return 2
			}
			pkgs = append(pkgs, loaded...)
		}
	} else {
		pkgs, err = loader.LoadPackages(flag.Args()...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hslint:", err)
			return 2
		}
	}

	diags := analysis.Run(pkgs, analyzers)

	if *fix {
		results, err := analysis.ApplyFixes(diags, !*diff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hslint:", err)
			return 2
		}
		applied, skipped := 0, 0
		for _, r := range results {
			applied += r.Applied
			skipped += r.Skipped
			if *diff && r.Applied > 0 {
				fmt.Print(analysis.Diff(r))
			}
		}
		if !*diff {
			fmt.Fprintf(os.Stderr, "hslint: applied %d fix(es)", applied)
			if skipped > 0 {
				fmt.Fprintf(os.Stderr, ", skipped %d (overlap)", skipped)
			}
			fmt.Fprintln(os.Stderr)
		}
		return 0
	}

	if *writeBase != "" {
		if err := analysis.WriteBaseline(*writeBase, diags, cwd); err != nil {
			fmt.Fprintln(os.Stderr, "hslint:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "hslint: wrote %d finding(s) to %s\n", len(diags), *writeBase)
		return 0
	}

	matched := make([]bool, len(diags))
	fresh := len(diags)
	var stale []analysis.BaselineEntry
	if *baseline != "" {
		base, err := analysis.ReadBaseline(*baseline, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hslint:", err)
			return 2
		}
		matched, fresh, stale = base.Match(diags, cwd, pkgs, analyzers)
	}

	if *format == "sarif" {
		out, err := analysis.SARIF(diags, matched, analyzers, cwd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hslint:", err)
			return 2
		}
		fmt.Println(string(out))
	} else {
		for i, d := range diags {
			if matched[i] {
				fmt.Printf("%s (baselined)\n", d)
			} else {
				fmt.Println(d)
			}
		}
	}
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "%s: stale baseline entry, no finding matches it: %s [%s]; delete it from %s\n",
			e.File, e.Message, e.Check, *baseline)
	}
	if fresh > 0 || len(stale) > 0 {
		return 1
	}
	return 0
}
