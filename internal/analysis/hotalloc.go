package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc enforces the zero-steady-state-allocation contract of the
// serving hot path (DESIGN.md §13). It is opt-in: a function whose doc
// comment carries a `//hslint:hotpath` line promises that a steady-state
// call allocates nothing, and the analyzer flags the constructs that break
// that promise:
//
//   - make — per-call slice/map/chan construction; buffers belong in scratch
//     or construction-time state;
//   - append — growth is data-dependent, so even an append that usually has
//     capacity allocates on the wrong input; preallocate and use indexed
//     writes;
//   - map composite literals — always allocate;
//   - function literals that capture enclosing variables — the closure
//     context is heap-allocated per call; hoist the closure or pass state
//     explicitly.
//
// Growth paths deliberately live in un-annotated helpers (PredictScratch's
// ensure methods, the batcher's constructor): the annotation marks the
// per-call path, not the warm-up. Test files are exempt.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//hslint:hotpath functions must not allocate: no make, append, map literals, or capturing closures",
	Run:  runHotAlloc,
}

// hotpathMarker is the doc-comment line that opts a function in. It shares
// the //hslint: namespace with the ignore directive but is a distinct verb,
// so directive hygiene (unknown-check detection) does not apply to it.
const hotpathMarker = "//hslint:hotpath"

// isHotpath reports whether fd's doc comment carries the marker line.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathMarker {
			return true
		}
	}
	return false
}

func runHotAlloc(pass *Pass) {
	eachFuncDecl(pass, func(fd *ast.FuncDecl) {
		if isTestFile(pass.Fset, fd.Pos()) || !isHotpath(fd) {
			return
		}
		checkHotpathBody(pass, fd)
	})
}

func checkHotpathBody(pass *Pass, fd *ast.FuncDecl) {
	name := funcName(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(pass, x, "make") {
				pass.Reportf(x.Pos(),
					"make in hotpath %s allocates per call; preallocate the buffer in scratch or construction-time state and reuse it", name)
			}
			if isBuiltin(pass, x, "append") {
				pass.Reportf(x.Pos(),
					"append in hotpath %s can grow on any call (growth is data-dependent); preallocate to the high-water mark and use indexed writes", name)
			}
		case *ast.CompositeLit:
			if t := pass.TypeOf(x); t != nil && isMapType(t) {
				pass.Reportf(x.Pos(),
					"map literal in hotpath %s allocates per call; build the map once at construction", name)
			}
		case *ast.FuncLit:
			if capt := capturedVar(pass, fd, x); capt != "" {
				pass.Reportf(x.Pos(),
					"closure in hotpath %s captures %s, heap-allocating its context per call; hoist the closure or pass the state explicitly", name, capt)
			}
			// The literal runs on its own terms (often deferred or handed
			// elsewhere); the hotpath promise covers the annotated body only.
			return false
		}
		return true
	})
}

// capturedVar returns the name of a variable the literal captures from the
// enclosing function (receiver, parameter, or local — anything declared
// inside fd but outside lit), or "". References to package-level state do
// not count: a closure over globals compiles to a static function value.
func capturedVar(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			captured = v.Name()
		}
		return true
	})
	return captured
}
