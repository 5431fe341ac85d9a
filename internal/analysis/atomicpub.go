package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicPub guards lock-free publication: once a field is accessed through
// the sync/atomic function API in any function of a package, every other
// access to that field must be atomic too. A single plain read races every
// atomic store; a plain write tears the publication protocol snapimmutable
// assumes. The check is interprocedural in the sense that the atomic access
// and the plain one may live in different functions — the package summary
// unions the atomically-accessed field set across the whole package
// (including spawned goroutine bodies, PkgSummary.Union) before the access
// walk runs.
//
// Also flagged: reassigning a typed atomic field (atomic.Pointer[T],
// atomic.Value, atomic.Bool, ...) outside a constructor — `s.snap = x`
// bypasses Store and copies the internal state go vet's copylocks only
// catches for locks.
//
// Constructor-shaped functions (New*/new*/Load*/load*/init/main) are exempt:
// before the value is published there is no concurrent reader.
var AtomicPub = &Analyzer{
	Name: "atomicpub",
	Doc:  "fields accessed via sync/atomic must never be accessed plainly",
	Run:  runAtomicPub,
}

func runAtomicPub(pass *Pass) {
	atomicVars := pass.Summary().Union.AtomicFields

	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if constructorNamed(fd.Name.Name) {
				continue
			}
			checkAtomicAccesses(pass, fd, atomicVars)
		}
	}
}

// checkAtomicAccesses flags plain accesses to atomically-published variables
// inside one function body.
func checkAtomicAccesses(pass *Pass, fd *ast.FuncDecl, atomicVars map[*types.Var]bool) {
	info := pass.Info

	// sanctioned marks the &v operands of sync/atomic calls: those accesses
	// ARE the atomic protocol.
	sanctioned := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isFromPkg(info.ObjectOf(sel.Sel), "sync/atomic") {
			return true
		}
		for _, arg := range call.Args {
			if un, ok := arg.(*ast.UnaryExpr); ok && un.Op == token.AND {
				sanctioned[un.X] = true
			}
		}
		return true
	})

	// Writes: LHS of assignments and IncDec operands.
	writes := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				writes[lhs] = true
			}
		case *ast.IncDecStmt:
			writes[n.X] = true
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr:
		default:
			return true
		}
		if sanctioned[e] {
			return false // the atomic access itself; don't descend into x.f's x
		}
		v := refVar(info, e)
		if v == nil || !atomicVars[v] {
			return true
		}
		// Selector chains resolve the same field var at two depths (x.f via
		// Selections and f via Uses); report the outermost node only.
		if _, isIdent := e.(*ast.Ident); isIdent && v.IsField() {
			return true
		}
		verb := "read"
		if writes[e] {
			verb = "write"
		}
		pass.Reportf(e.Pos(),
			"plain %s of %s, which is accessed via sync/atomic elsewhere in the package; use atomic loads/stores everywhere",
			verb, exprText(e))
		return false
	})

	// Typed atomic fields (atomic.Pointer[T], atomic.Value, ...): assignment
	// replaces the value wholesale, bypassing Store.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			v := refVar(info, sel)
			if v == nil || !v.IsField() || !typedAtomic(v.Type()) {
				continue
			}
			pass.Reportf(lhs.Pos(),
				"assignment to atomic field %s bypasses Store; use %s.Store(...)",
				exprText(lhs), exprText(lhs))
		}
		return true
	})
}

// typedAtomic reports whether t is one of sync/atomic's typed wrappers.
func typedAtomic(t types.Type) bool {
	for _, name := range []string{"Pointer", "Value", "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr"} {
		if namedIn(t, "atomic", name) {
			return true
		}
	}
	return false
}
