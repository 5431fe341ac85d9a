package analysis

import (
	"go/ast"
	"go/token"
)

// LockOrder enforces the Trainer's two-lock protocol (internal/core/trainer.go):
// trainMu serializes training runs and is NEVER acquired while mu (the
// sample-store lock) is held — the reverse order is what lets AddSamples
// proceed during a search. It also flags a sync.Mutex Lock with no matching
// Unlock (direct or deferred) in the same function, the copy-paste bug that
// turns a degraded train run into a deadlock.
//
// The walk is a linear source-order approximation of control flow, plus a
// one-level call check against the package summary (interproc.go): calling
// a function whose own body acquires a field named trainMu while a mu-field
// lock is held is flagged too, and so is calling a function whose body
// Locks a mutex field the caller already holds — sync.Mutex is not
// reentrant, so that call deadlocks on itself. A goroutine the callee
// spawns has its own summary, so its locks do not count: like a closure, it
// runs at a different time.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "trainMu must never be acquired while mu is held; no call re-locks a held mutex; every Lock needs an Unlock",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	ps := pass.Summary()
	eachFuncDecl(pass, func(fd *ast.FuncDecl) {
		walkLockScope(pass, ps, fd.Body)
	})
}

// walkLockScope analyzes one function (or closure) body with fresh lock state.
func walkLockScope(pass *Pass, ps *PkgSummary, body *ast.BlockStmt) {
	held := make(map[string]token.Pos) // currently held, linear approximation
	firstLock := make(map[string]token.Pos)
	released := make(map[string]bool) // any Unlock or defer Unlock seen
	skip := make(map[ast.Node]bool)   // call nodes consumed by defer handling

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures run at a different time than they are declared;
			// analyze them as independent scopes.
			walkLockScope(pass, ps, n.Body)
			return false

		case *ast.DeferStmt:
			if key, _, method, ok := mutexCall(pass.Info, n.Call); ok &&
				(method == "Unlock" || method == "RUnlock") {
				released[key] = true
			}
			// defer func() { mu.Unlock() }() also releases at exit.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if key, _, method, ok := mutexCall(pass.Info, call); ok &&
							(method == "Unlock" || method == "RUnlock") {
							released[key] = true
						}
					}
					return true
				})
			}
			skip[n.Call] = true
			return true

		case *ast.CallExpr:
			if skip[n] {
				return true
			}
			if key, field, method, ok := mutexCall(pass.Info, n); ok {
				switch method {
				case "Lock", "RLock":
					if field == "trainMu" {
						for h := range held {
							if lockBase(h) == lockBase(key) && h != key && fieldOf(h) == "mu" {
								pass.Reportf(n.Pos(),
									"trainMu acquired while mu is held; the trainer's lock order is trainMu before mu (trainer.go contract)")
							}
						}
					}
					held[key] = n.Pos()
					if _, seen := firstLock[key]; !seen {
						firstLock[key] = n.Pos()
					}
				case "Unlock", "RUnlock":
					delete(held, key)
					released[key] = true
				}
				return true
			}
			// Cross-function, one level deep: a callee that locks trainMu
			// while we hold a mu is the same ordering violation, and a
			// callee that locks a field we hold deadlocks on it.
			if callee := ps.Funcs[calledFunc(pass.Info, n)]; callee != nil {
				for h := range held {
					switch f := fieldOf(h); {
					case callee.Locks[f]:
						pass.Reportf(n.Pos(),
							"call to %s locks %s, which is already held; sync.Mutex is not reentrant", callee.Obj.Name(), f)
					case f == "mu" && callee.Locks["trainMu"]:
						pass.Reportf(n.Pos(),
							"call to %s acquires trainMu while mu is held", callee.Obj.Name())
					}
				}
			}
		}
		return true
	})

	for key, pos := range firstLock {
		if !released[key] {
			pass.Reportf(pos,
				"%s is locked but never unlocked in this function (no Unlock or defer Unlock)", fieldOf(key))
		}
	}
}

// fieldOf returns the final field name of a lock key.
func fieldOf(key string) string {
	base := lockBase(key)
	if base == key {
		return key
	}
	return key[len(base)+1:]
}
