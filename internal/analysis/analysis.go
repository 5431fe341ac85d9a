// Package analysis is hslint's analyzer framework: a small, stdlib-only
// counterpart to golang.org/x/tools/go/analysis (the module deliberately has
// no external dependencies). It hosts the repo-specific analyzers that turn
// the engine's prose invariants — lock ordering, snapshot immutability,
// search determinism, sentinel-error matching, float comparison discipline,
// context propagation — into machine-checked ones. See DESIGN.md §10.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, located and attributed to a check.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Check)
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *types.Package
	PkgName  string
	Files    []*ast.File
	Info     *types.Info

	pkg    *Package // back-reference for shared per-package state (summaries)
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// All returns every analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		LockOrder,
		SnapImmutable,
		Determinism,
		ErrCmp,
		FloatEq,
		CtxFlow,
		HotAlloc,
		GoroLife,
		AtomicPub,
		BoundedGrowth,
	}
}

// byName resolves a set of analyzer names; unknown names are reported along
// with the full set of known check names.
func byName(names []string) ([]*Analyzer, error) {
	index := make(map[string]*Analyzer)
	var known []string
	for _, a := range All() {
		index[a.Name] = a
		known = append(known, a.Name)
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (available: %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Select returns the analyzers with the given names (all of them when names
// is empty).
func Select(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	return byName(names)
}

// Run applies the analyzers to each package, applies //hslint:ignore
// directives, and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Pkg:      pkg.Types,
				PkgName:  pkg.Name,
				Files:    pkg.Files,
				Info:     pkg.Info,
				pkg:      pkg,
				report:   func(d Diagnostic) { pkgDiags = append(pkgDiags, d) },
			}
			a.Run(pass)
		}
		ran := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		diags = append(diags, applyIgnores(pkg, pkgDiags, ran)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags
}

// isTestFile reports whether pos is inside a _test.go file. Analyzers that
// guard exported-API or reproducibility invariants skip test files; the
// comparison-discipline analyzers (floateq, errcmp) deliberately do not.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	name := fset.Position(pos).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
