package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// namedIn reports whether t (after stripping one pointer) is a named type
// with the given name declared in a package with the given package name.
// Matching by package *name* rather than import path lets the analyzers
// apply identically to the real packages and to testdata stand-ins.
func namedIn(t types.Type, pkgName, typeName string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	return namedIn(t, "sync", "Mutex") || namedIn(t, "sync", "RWMutex")
}

// isFromPkg reports whether obj is declared in the package with the given
// import path.
func isFromPkg(obj types.Object, path string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements error.
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return namedIn(t, "context", "Context")
}

// isFloat reports whether t's core type is a floating-point scalar.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// lockKey names a mutex-valued selector chain rooted at an identifier, e.g.
// "m.mu" or "s.inner.trainMu", pairing the root object's identity with the
// printed field path so distinct receivers get distinct keys. ok is false
// for expressions the walker cannot name (function results, map elements).
func lockKey(info *types.Info, e ast.Expr) (key string, ok bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("%p.%s", obj, e.Name), true
	case *ast.SelectorExpr:
		base, ok := lockKey(info, e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return lockKey(info, e.X)
	case *ast.StarExpr:
		return lockKey(info, e.X)
	}
	return "", false
}

// lockBase strips the final field from a lock key: the two locks in an
// ordering violation must hang off the same owner.
func lockBase(key string) string {
	i := strings.LastIndex(key, ".")
	if i < 0 {
		return key
	}
	return key[:i]
}

// mutexCall decomposes a call of the form <expr>.<mutexField>.<method>()
// where the receiver of method is a sync mutex. It returns the lock key of
// the mutex expression, the final field name holding the mutex, and the
// method name (Lock, Unlock, RLock, RUnlock, TryLock).
func mutexCall(info *types.Info, call *ast.CallExpr) (key, field, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return
	}
	recv := sel.X
	if !isMutex(info.TypeOf(recv)) {
		return
	}
	key, kok := lockKey(info, recv)
	if !kok {
		return
	}
	field = key[strings.LastIndex(key, ".")+1:]
	return key, field, sel.Sel.Name, true
}

// funcName renders a function or method name for diagnostics.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		if id, ok := ix.X.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// declaredOutside reports whether the object behind an identifier (or the
// root identifier of a selector chain) is declared outside the [lo, hi)
// position range — used to tell loop-local accumulators from captured ones.
func declaredOutside(info *types.Info, e ast.Expr, lo, hi ast.Node) bool {
	obj := rootObject(info, e)
	return obj != nil && (obj.Pos() < lo.Pos() || obj.Pos() >= hi.End())
}

// rootObject returns the object of the leftmost identifier in a selector /
// index chain.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return info.ObjectOf(x)
		default:
			return nil
		}
	}
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// exprText renders an expression for diagnostics.
func exprText(e ast.Expr) string { return types.ExprString(e) }

// eachFuncDecl invokes fn for every function declaration with a body.
func eachFuncDecl(pass *Pass, fn func(*ast.FuncDecl)) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
