package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism guards the reproducibility contract of the search and fit
// packages (genetic, regress, linalg, core, and every model family under
// internal/family/...): the Figure 5 convergence numbers (0.6121/0.5650)
// must reproduce bit-identically from a seed, and a family's Fit must be a
// pure function of its FitInput. Three
// nondeterminism vectors are flagged inside those packages:
//
//   - math/rand (and math/rand/v2) global-source functions — all randomness
//     must flow through the seeded internal/rng Source;
//   - time.Now — wall-clock reads belong to callers (injected clocks);
//   - accumulation in map-iteration order — appending to an outer slice, or
//     compound-assigning to an outer float accumulator, inside a `range m`
//     loop over a map, unless the result is sorted later in the same
//     function (the collect-then-sort idiom is how the trainer
//     canonicalizes application IDs).
//
// Test files are exempt: the contract covers the production fit/search
// paths, and tests legitimately use wall-clock deadlines.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "search/fit packages must stay bit-reproducible: no global rand, no time.Now, no map-order accumulation",
	Run:  runDeterminism,
}

// determinismPkgs are the package names the reproducibility contract covers.
var determinismPkgs = map[string]bool{
	"genetic": true,
	"regress": true,
	"linalg":  true,
	"core":    true,
	// The ModelFamily plug-in layer: family.Fit is contractually a pure
	// function of FitInput (internal/family's package doc), so every family
	// package is held to the same bit-reproducibility bar as the engine.
	"family":   true,
	"spline":   true,
	"residual": true,
	"dal":      true,
}

// globalRandFuncs are the math/rand (v1 and v2) functions that read the
// package-global source.
var globalRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "Perm": true, "Shuffle": true,
	"NormFloat64": true, "ExpFloat64": true, "Read": true,
	// math/rand/v2 additions
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"UintN": true, "Uint": true, "Uint32N": true, "Uint64N": true, "N": true,
}

func runDeterminism(pass *Pass) {
	if !determinismPkgs[pass.PkgName] {
		return
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				checkNondetSelector(pass, sel)
			}
			return true
		})
	}
	eachFuncDecl(pass, func(fd *ast.FuncDecl) {
		if isTestFile(pass.Fset, fd.Pos()) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				checkMapRangeAccum(pass, fd, rs)
			}
			return true
		})
	})
}

// checkNondetSelector flags math/rand globals and time.Now uses.
func checkNondetSelector(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.Info.ObjectOf(sel.Sel)
	if obj == nil {
		return
	}
	switch {
	case isFromPkg(obj, "math/rand") || isFromPkg(obj, "math/rand/v2"):
		// Only package-level functions read the process-global source;
		// methods on an explicitly seeded *rand.Rand are deterministic.
		f, ok := obj.(*types.Func)
		if ok && f.Type().(*types.Signature).Recv() == nil && globalRandFuncs[obj.Name()] {
			pass.Reportf(sel.Pos(),
				"%s.%s draws from the process-global source; use a seeded internal/rng.Source so runs reproduce",
				obj.Pkg().Name(), obj.Name())
		}
	case isFromPkg(obj, "time") && obj.Name() == "Now":
		pass.Reportf(sel.Pos(),
			"time.Now in a fit/search path breaks run-to-run reproducibility; inject a clock or take the time from the caller")
	}
}

// checkMapRangeAccum flags order-dependent accumulation inside a map range.
func checkMapRangeAccum(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	if t := pass.TypeOf(rs.X); t == nil || !isMapType(t) {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			// v = append(v, ...) onto a slice declared outside the loop
			// accumulates in map order.
			for i, rhs := range as.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltin(pass, call, "append") || i >= len(as.Lhs) {
					continue
				}
				lhs := as.Lhs[i]
				if declaredOutside(pass.Info, lhs, rs, rs) && !sortedLater(pass, fd, rs, lhs) {
					pass.Reportf(as.Pos(),
						"append to %s inside range over map accumulates in nondeterministic iteration order; iterate sorted keys or sort the result",
						exprText(lhs))
				}
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			// Float accumulation is not associative: summing in map order
			// changes low bits between runs.
			lhs := as.Lhs[0]
			if isFloat(pass.TypeOf(lhs)) && declaredOutside(pass.Info, lhs, rs, rs) {
				pass.Reportf(as.Pos(),
					"float accumulation into %s inside range over map depends on iteration order; iterate sorted keys",
					exprText(lhs))
			}
		}
		return true
	})
}

// sortedLater reports whether acc is passed to a sort.* or slices.Sort* call
// after the range statement in the same function — the collect-then-sort
// idiom, which is deterministic.
func sortedLater(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, acc ast.Expr) bool {
	target := rootObject(pass.Info, acc)
	if target == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= rs.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.Info.ObjectOf(sel.Sel)
		if !isFromPkg(obj, "sort") && !isFromPkg(obj, "slices") {
			return true
		}
		for _, arg := range call.Args {
			argDone := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.Info.ObjectOf(id) == target {
					argDone = true
				}
				return !argDone
			})
			if argDone {
				found = true
			}
		}
		return !found
	})
	return found
}
