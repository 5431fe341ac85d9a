package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow enforces the cancellation discipline PR 1 threaded through the
// engine: exported entry points of the training/search/serving/lifecycle
// packages (core, genetic, serve, lifecycle, registry, and the model-family
// packages under internal/family/...) that loop over cancellable work
// — generations, shards, queued requests, retrain episodes — must accept a
// context.Context (or *http.Request, whose context serves) and actually use
// it. Concretely, an exported
// function is flagged when a loop in its body performs cancellable work —
// calls a function that itself takes a context, blocks on a channel or
// select, or sleeps — while the function either has no context-carrying
// parameter or never references the one it has.
//
// Pure bounded computation (the lock-free predict fast path) does not
// trigger the analyzer: looping over shards calling arithmetic is fine;
// looping around ctx-aware work without propagating a ctx is not.
// Close() error is exempt — io.Closer's shape is fixed, and drain-on-close
// is its documented contract. Test files are exempt.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "exported core/genetic/serve/lifecycle functions looping over cancellable work must accept and use a context",
	Run:  runCtxFlow,
}

var ctxFlowPkgs = map[string]bool{
	"core": true, "genetic": true, "serve": true, "lifecycle": true,
	// Model families run searches and per-cluster fits inside Fit; a family
	// that loops without honoring its context would make the selection
	// harness (and Train's SearchTimeout) uncancellable.
	"family": true, "spline": true, "residual": true, "dal": true,
	// A model registry fans requests and sample batches across entries; its
	// exported loops must stay cancellable or one slow entry would wedge
	// every caller. The serving registry is part of serve; the name covers
	// the testdata/ctxflow/registry stand-in.
	"registry": true,
}

func runCtxFlow(pass *Pass) {
	if !ctxFlowPkgs[pass.PkgName] {
		return
	}
	eachFuncDecl(pass, func(fd *ast.FuncDecl) {
		if !fd.Name.IsExported() || isTestFile(pass.Fset, fd.Pos()) || isCloser(pass, fd) {
			return
		}
		ctxParams := contextParams(pass, fd)

		var loopPos ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if loopPos != nil {
				return false
			}
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				// Ranging over a channel blocks on every iteration: that is
				// cancellable work regardless of the loop body.
				if t := pass.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						loopPos = n
						return false
					}
				}
				body = n.Body
			default:
				return true
			}
			if loopDoesCancellableWork(pass, body) {
				loopPos = n
			}
			return true
		})
		if loopPos == nil {
			return
		}
		if len(ctxParams) == 0 {
			pass.Reportf(loopPos.Pos(),
				"exported %s loops over cancellable work but has no context.Context parameter; long runs cannot be cancelled",
				funcName(fd))
			return
		}
		if !paramsUsed(pass, fd.Body, ctxParams) {
			pass.Reportf(loopPos.Pos(),
				"exported %s accepts a context but never uses it; check ctx.Err (or pass ctx on) inside the loop",
				funcName(fd))
		}
	})
}

// isCloser reports whether fd is a Close() error method, io.Closer's shape.
func isCloser(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Name.Name != "Close" || fd.Recv == nil {
		return false
	}
	sig, ok := pass.TypeOf(fd.Name).(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		isErrorType(sig.Results().At(0).Type())
}

// contextParams returns the objects of parameters that carry a context:
// context.Context values and *http.Request (via r.Context()).
func contextParams(pass *Pass, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.Info.ObjectOf(name)
			if obj == nil {
				continue
			}
			t := obj.Type()
			if isContextType(t) || namedIn(t, "http", "Request") {
				out = append(out, obj)
			}
		}
	}
	return out
}

// loopDoesCancellableWork reports whether a loop body contains work the
// engine considers cancellable: a call whose callee accepts a
// context.Context, a channel operation or select, or a time.Sleep.
func loopDoesCancellableWork(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW { // <-ch receive
				found = true
			}
		case *ast.CallExpr:
			if sig, ok := pass.TypeOf(n.Fun).(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					if isContextType(sig.Params().At(i).Type()) {
						found = true
					}
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if obj := pass.Info.ObjectOf(sel.Sel); isFromPkg(obj, "time") && obj.Name() == "Sleep" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// paramsUsed reports whether any of the given parameter objects is
// referenced in body.
func paramsUsed(pass *Pass, body *ast.BlockStmt, params []types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			obj := pass.Info.ObjectOf(id)
			for _, p := range params {
				if obj == p {
					used = true
				}
			}
		}
		return !used
	})
	return used
}
