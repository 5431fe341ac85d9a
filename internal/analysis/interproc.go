// Interprocedural layer: a package-level call graph plus per-function
// summaries, the one place hslint walks across functions. Four analyzers
// query it: gorolife, atomicpub and boundedgrowth read the package-wide
// union and the call graph, and lockorder reads a callee's own summary for
// its one-level trainMu check. A per-function walk cannot see these bug
// classes: a goroutine whose join lives in a different function, a field
// published atomically in one method and read plainly in another, a map that
// grows on the request path while its eviction sits behind a helper, a call
// that takes trainMu inside the callee. A Summary records what one
// function-like body *does* (spawns, joins, channel traffic, mutex, atomic
// and growth accesses); the PkgSummary stitches them into a graph whose
// edges are static calls, function references (a method value handed to a
// mux is an edge — the handler runs even though no call expression names
// it), and spawns, and unions the facts the analyzers ask about package-wide
// (PkgSummary.Union) in the same walk.
//
// Summaries are computed once per package and shared by every analyzer in
// the run (Pass.Summary memoizes on the Package).
package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// GrowKind classifies a growth site.
type GrowKind string

const (
	// GrowAppend is v = append(v, ...) onto a long-lived slice.
	GrowAppend GrowKind = "append"
	// GrowMapInsert is m[k] = v / m[k]++ / m[k] += x into a long-lived map.
	GrowMapInsert GrowKind = "map insert"
)

// GrowSite is one statement that can grow a long-lived container.
type GrowSite struct {
	Pos    token.Pos
	Target *types.Var // the field or package-level var that grows
	Kind   GrowKind
	Name   string // rendered target expression, for diagnostics
}

// SpawnSite is one `go` statement.
type SpawnSite struct {
	Stmt *ast.GoStmt
	// Body summarizes a spawned function literal (go func(){...}()); nil when
	// the spawn calls a named function.
	Body *Summary
	// Callee is the spawned named function, nil for literals or dynamic
	// values (go f() where f is a variable).
	Callee *types.Func
	// CalleeLocal reports whether Callee is declared in this package (its
	// summary is available).
	CalleeLocal bool
	// RecvRoot is the root object of the callee's receiver expression for
	// method spawns (go hs.Serve(ln) -> the object of hs), nil otherwise.
	RecvRoot types.Object
	// Dynamic marks spawns of non-constant function values the graph cannot
	// resolve.
	Dynamic bool
}

// Summary is what one function-like body does, as far as the concurrency
// analyzers care. "Function-like" covers declared functions and methods and
// the bodies of spawned function literals; a non-spawned literal (a deferred
// closure, a callback built and invoked in place) is folded into its
// enclosing function, because it runs within that function's dynamic extent.
type Summary struct {
	// Decl/Obj identify a declared function; both are nil for the body of a
	// spawned function literal.
	Decl *ast.FuncDecl
	Obj  *types.Func

	// Calls are static callees (any package); Refs are in-package functions
	// referenced without being called (method values, funcs stored in vars or
	// structs — they may run later, so the graph treats a reference as an
	// edge).
	Calls map[*types.Func]bool
	Refs  map[*types.Func]bool

	// Spawns are the `go` statements in this body (not those of nested
	// spawned literals — each spawned literal owns its own Summary).
	Spawns []*SpawnSite

	// WaitGroup traffic, keyed by the variable or field identity.
	WGAdds  map[*types.Var]bool
	WGDones map[*types.Var]bool
	WGWaits map[*types.Var]bool

	// Channel traffic, keyed by the variable or field identity.
	ChanCloses map[*types.Var]bool
	ChanRecvs  map[*types.Var]bool // receive exprs and range-over-channel
	ChanSends  map[*types.Var]bool

	// UsesContext reports that the body consumes a cancellable context:
	// ctx.Done()/Err()/Deadline(), or a context value passed on to a callee.
	UsesContext bool

	// Locks names the mutex fields this body Locks (by field name, as
	// lockorder compares them). RLock and TryLock are left out: a callee's
	// TryLock never blocks, so it can neither deadlock nor order locks.
	Locks map[string]bool

	// AtomicFields are fields/package vars accessed through the sync/atomic
	// function API (&x passed to atomic.AddUint64 and friends).
	AtomicFields map[*types.Var]bool

	// Grows and Bounds drive boundedgrowth: growth sites in this body, and
	// the targets for which this body carries eviction/cap evidence —
	// delete(v, k), clear(v), a truncating self-assignment v = v[...],
	// v = nil, or a len(v) comparison against a nonzero bound.
	Grows  []GrowSite
	Bounds map[*types.Var]bool

	// CloseRoots are root objects on which this body calls a shutdown-shaped
	// method (Close, Shutdown, Stop, Wait): `go hs.Serve(ln)` is supervised
	// when hs.Shutdown is reachable.
	CloseRoots map[types.Object]bool
}

func newSummary() *Summary {
	return &Summary{
		Calls:        make(map[*types.Func]bool),
		Refs:         make(map[*types.Func]bool),
		WGAdds:       make(map[*types.Var]bool),
		WGDones:      make(map[*types.Var]bool),
		WGWaits:      make(map[*types.Var]bool),
		ChanCloses:   make(map[*types.Var]bool),
		ChanRecvs:    make(map[*types.Var]bool),
		ChanSends:    make(map[*types.Var]bool),
		Locks:        make(map[string]bool),
		AtomicFields: make(map[*types.Var]bool),
		Bounds:       make(map[*types.Var]bool),
		CloseRoots:   make(map[types.Object]bool),
	}
}

// PkgSummary is the package-level view: every declared function's summary in
// declaration order, indexed by object, plus the package-wide union.
type PkgSummary struct {
	Funcs map[*types.Func]*Summary
	All   []*Summary // declared functions, file/decl order

	// Union holds, over every declared function and (transitively) every
	// spawned literal body, the WaitGroups waited on, the channels received
	// from and closed, the shutdown roots, the bound evidence and the atomic
	// fields: WGWaits, ChanRecvs, ChanCloses, CloseRoots, Bounds and
	// AtomicFields. Its other fields stay empty.
	Union *Summary
}

// Summarize builds (or returns the memoized) PkgSummary for the pass's
// package.
func (p *Pass) Summary() *PkgSummary {
	if p.pkg.summary == nil {
		p.pkg.summary = summarize(p)
	}
	return p.pkg.summary
}

func summarize(p *Pass) *PkgSummary {
	ps := &PkgSummary{Funcs: make(map[*types.Func]*Summary), Union: newSummary()}
	eachFuncDecl(p, func(fd *ast.FuncDecl) {
		sum := newSummary()
		sum.Decl = fd
		sum.Obj, _ = p.Info.ObjectOf(fd.Name).(*types.Func)
		walkBody(p, ps, sum, fd, fd.Body)
		ps.All = append(ps.All, sum)
		if sum.Obj != nil {
			ps.Funcs[sum.Obj] = sum
		}
	})
	return ps
}

// receiverObj returns the object of fd's receiver variable, nil for plain
// functions (and anonymous receivers).
func receiverObj(p *Pass, fd *ast.FuncDecl) types.Object {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return p.Info.ObjectOf(fd.Recv.List[0].Names[0])
}

// refVar resolves an expression to the variable identity the summaries key
// on: the field object for selector chains (shared across instances — every
// sh.workerDone names the same field), the variable object for identifiers.
func refVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.Ident:
		v, _ := info.ObjectOf(e).(*types.Var)
		return v
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				return v
			}
		}
		if v, ok := info.ObjectOf(e.Sel).(*types.Var); ok {
			return v
		}
	case *ast.ParenExpr:
		return refVar(info, e.X)
	case *ast.StarExpr:
		return refVar(info, e.X)
	case *ast.IndexExpr:
		return refVar(info, e.X)
	}
	return nil
}

// isWaitGroup reports whether t is sync.WaitGroup.
func isWaitGroup(t types.Type) bool { return namedIn(t, "sync", "WaitGroup") }

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// closeVerbs are the method names that count as shutting a resource down.
var closeVerbs = map[string]bool{"Close": true, "Shutdown": true, "Stop": true, "Wait": true}

// walkBody fills sum from one function-like body and adds its package-wide
// facts to ps.Union. fd is the enclosing declaration (for receiver
// identity); it is passed through to spawned literals, whose captures still
// root at the enclosing receiver.
func walkBody(p *Pass, ps *PkgSummary, sum *Summary, fd *ast.FuncDecl, body ast.Node) {
	info := p.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			site := &SpawnSite{Stmt: n}
			switch fun := n.Call.Fun.(type) {
			case *ast.FuncLit:
				site.Body = newSummary()
				walkBody(p, ps, site.Body, fd, fun.Body)
			default:
				if f := calledFunc(info, n.Call); f != nil {
					site.Callee = f
					site.CalleeLocal = f.Pkg() == p.Pkg
				} else {
					site.Dynamic = true
				}
				if sel, ok := fun.(*ast.SelectorExpr); ok {
					site.RecvRoot = rootObject(info, sel.X)
				}
				// Spawn arguments are evaluated in this body.
				for _, arg := range n.Call.Args {
					walkExprInto(p, sum, arg)
				}
			}
			sum.Spawns = append(sum.Spawns, site)
			// A spawned literal's body belongs to the goroutine, not to this
			// function's dynamic extent.
			return false

		case *ast.CallExpr:
			recordCall(p, sum, n)
			return true

		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if v := refVar(info, n.X); v != nil && isChanType(v.Type()) {
					sum.ChanRecvs[v] = true
				}
			}
			return true

		case *ast.SendStmt:
			if v := refVar(info, n.Chan); v != nil {
				sum.ChanSends[v] = true
			}
			return true

		case *ast.RangeStmt:
			if isChanType(p.TypeOf(n.X)) {
				if v := refVar(info, n.X); v != nil {
					sum.ChanRecvs[v] = true
				}
			}
			return true

		case *ast.AssignStmt:
			recordAssign(p, sum, fd, n)
			return true

		case *ast.IncDecStmt:
			if ix, ok := n.X.(*ast.IndexExpr); ok {
				recordGrowTarget(p, sum, fd, ix, GrowMapInsert)
			}
			return true

		case *ast.BinaryExpr:
			// len(v) compared against a nonzero bound is cap evidence for v,
			// also as a term of a sum or difference (len(s.rows)+len(batch)
			// > max). Comparisons against literal 0 are emptiness checks,
			// not caps.
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				for i, side := range []ast.Expr{n.X, n.Y} {
					vars := lenTerms(p, side)
					if len(vars) == 0 {
						continue
					}
					other := n.Y
					if i == 1 {
						other = n.X
					}
					if tv, ok := info.Types[other]; ok && tv.Value != nil {
						if val, isInt := constant.Int64Val(tv.Value); isInt && val == 0 {
							continue
						}
					}
					for _, v := range vars {
						sum.Bounds[v] = true
					}
				}
			}
			return true

		case *ast.Ident:
			// A referenced (not called) in-package function is a graph edge:
			// it may run later (handler tables, method values).
			if f, ok := info.Uses[n].(*types.Func); ok && f.Pkg() == p.Pkg {
				sum.Refs[f] = true
			}
			return true
		}
		return true
	})

	u := ps.Union
	maps.Copy(u.WGWaits, sum.WGWaits)
	maps.Copy(u.ChanRecvs, sum.ChanRecvs)
	maps.Copy(u.ChanCloses, sum.ChanCloses)
	maps.Copy(u.CloseRoots, sum.CloseRoots)
	maps.Copy(u.Bounds, sum.Bounds)
	maps.Copy(u.AtomicFields, sum.AtomicFields)
}

// lenTerms returns v for every len(v) term of e, where e is a len call or a
// sum or difference of terms.
func lenTerms(p *Pass, e ast.Expr) []*types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if isBuiltin(p, e, "len") && len(e.Args) == 1 {
			if v := refVar(p.Info, e.Args[0]); v != nil {
				return []*types.Var{v}
			}
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return append(lenTerms(p, e.X), lenTerms(p, e.Y)...)
		}
	}
	return nil
}

// walkExprInto records effects of an expression (spawn arguments) into sum.
func walkExprInto(p *Pass, sum *Summary, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			recordCall(p, sum, call)
		}
		return true
	})
}

// calledFunc resolves the static callee of a call, if it is a declared
// function or method.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := info.ObjectOf(id).(*types.Func)
	return f
}

// recordCall classifies one call expression into sum.
func recordCall(p *Pass, sum *Summary, call *ast.CallExpr) {
	info := p.Info

	// Builtins: close, delete, clear.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isB := info.ObjectOf(id).(*types.Builtin); isB {
			switch id.Name {
			case "close":
				if len(call.Args) == 1 {
					if v := refVar(info, call.Args[0]); v != nil {
						sum.ChanCloses[v] = true
					}
				}
			case "delete", "clear":
				if len(call.Args) >= 1 {
					if v := refVar(info, call.Args[0]); v != nil {
						sum.Bounds[v] = true
					}
				}
			}
			return
		}
	}

	if f := calledFunc(info, call); f != nil {
		sum.Calls[f] = true
	}

	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		recvT := p.TypeOf(sel.X)
		method := sel.Sel.Name

		// WaitGroup protocol.
		if isWaitGroup(recvT) {
			if v := refVar(info, sel.X); v != nil {
				switch method {
				case "Add":
					sum.WGAdds[v] = true
				case "Done":
					sum.WGDones[v] = true
				case "Wait":
					sum.WGWaits[v] = true
				}
			}
		}

		// Mutex acquisitions, for lockorder's one-level callee check.
		if _, field, method, ok := mutexCall(info, call); ok && method == "Lock" {
			sum.Locks[field] = true
		}

		// ctx.Done()/Err()/Deadline() consume cancellation.
		if isContextType(recvT) && (method == "Done" || method == "Err" || method == "Deadline") {
			sum.UsesContext = true
		}

		// Shutdown-shaped calls on a named root: go hs.Serve(ln) is
		// supervised when hs.Shutdown()/hs.Close() appears in the package.
		if closeVerbs[method] {
			if root := rootObject(info, sel.X); root != nil {
				sum.CloseRoots[root] = true
			}
		}

		// sync/atomic function API: &x.f handed to atomic.AddUint64 et al.
		if obj := info.ObjectOf(sel.Sel); isFromPkg(obj, "sync/atomic") {
			for _, arg := range call.Args {
				if un, ok := arg.(*ast.UnaryExpr); ok && un.Op == token.AND {
					if v := refVar(info, un.X); v != nil {
						sum.AtomicFields[v] = true
					}
				}
			}
		}
	}

	// A context value passed onward keeps the work cancellable.
	for _, arg := range call.Args {
		if isContextType(p.TypeOf(arg)) {
			sum.UsesContext = true
		}
	}
}

// recordAssign classifies one assignment: growth (append onto / insert into
// a long-lived container) or bound evidence (truncation, nil/make reset).
func recordAssign(p *Pass, sum *Summary, fd *ast.FuncDecl, as *ast.AssignStmt) {
	info := p.Info
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		}

		// Map insert: m[k] = v, m[k] += v (also via token.ASSIGN and every
		// compound op — all create the key when absent).
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if isMapType(p.TypeOf(ix.X)) {
				recordGrowTarget(p, sum, fd, ix, GrowMapInsert)
			}
			continue
		}

		v := refVar(info, lhs)
		if v == nil || rhs == nil {
			continue
		}

		switch r := rhs.(type) {
		case *ast.CallExpr:
			if isBuiltin(p, r, "append") && len(r.Args) > 0 {
				if refVar(info, r.Args[0]) == v {
					if _, trunc := r.Args[0].(*ast.SliceExpr); trunc {
						// v = append(v[:i], v[j:]...): an eviction.
						sum.Bounds[v] = true
					} else {
						recordGrowVar(p, sum, fd, lhs, v, GrowAppend)
					}
					continue
				}
			}
			// v = make(...) is deliberately NOT evidence: it is the lazy-init
			// idiom far more often than a flush, and genuine flush-at-cap
			// patterns carry a len(v) comparison that already counts.
		case *ast.SliceExpr:
			if refVar(info, r.X) == v {
				sum.Bounds[v] = true // v = v[:n]
				continue
			}
		}
		if tv, ok := info.Types[rhs]; ok && tv.IsNil() {
			sum.Bounds[v] = true // v = nil
		}
	}
}

// recordGrowTarget records an IndexExpr map insert when the map is rooted in
// long-lived state.
func recordGrowTarget(p *Pass, sum *Summary, fd *ast.FuncDecl, ix *ast.IndexExpr, kind GrowKind) {
	if !isMapType(p.TypeOf(ix.X)) {
		return
	}
	if v := refVar(p.Info, ix.X); v != nil {
		recordGrowVar(p, sum, fd, ix.X, v, kind)
	}
}

// recordGrowVar keeps a growth site if its target is long-lived: a field
// reached through the method's receiver, or a package-level variable. Local
// builders (out := append(out, ...), a map in a local struct) are exempt —
// their lifetime ends with the call.
func recordGrowVar(p *Pass, sum *Summary, fd *ast.FuncDecl, expr ast.Expr, v *types.Var, kind GrowKind) {
	if !longLivedTarget(p, fd, expr, v) {
		return
	}
	sum.Grows = append(sum.Grows, GrowSite{
		Pos:    expr.Pos(),
		Target: v,
		Kind:   kind,
		Name:   exprText(expr),
	})
}

// longLivedTarget reports whether expr names state that outlives the call:
// a package-level var, or a field chain rooted at the enclosing method's
// receiver.
func longLivedTarget(p *Pass, fd *ast.FuncDecl, expr ast.Expr, v *types.Var) bool {
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return true // package-level var
	}
	if !v.IsField() {
		return false
	}
	root := rootObject(p.Info, expr)
	if root == nil {
		return false
	}
	recv := receiverObj(p, fd)
	return recv != nil && root == recv
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isB := p.Info.ObjectOf(id).(*types.Builtin)
	return isB && id.Name == name
}

// Closure returns the transitive in-package closure of start: start itself,
// every in-package function it calls or references, and so on. Spawn-site
// bodies encountered along the way are included (their work runs on behalf
// of the start function).
func (ps *PkgSummary) Closure(start *Summary) []*Summary {
	var out []*Summary
	seen := make(map[*Summary]bool)
	var visit func(*Summary)
	visit = func(s *Summary) {
		if s == nil || seen[s] {
			return
		}
		seen[s] = true
		out = append(out, s)
		for f := range s.Calls {
			visit(ps.Funcs[f])
		}
		for f := range s.Refs {
			visit(ps.Funcs[f])
		}
		for _, sp := range s.Spawns {
			if sp.Body != nil {
				visit(sp.Body)
			} else if sp.CalleeLocal {
				visit(ps.Funcs[sp.Callee])
			}
		}
	}
	visit(start)
	return out
}

// ReachableFromExported returns every summary reachable from an exported
// declared function of the package — the static approximation of "runs on a
// request/submission path".
func (ps *PkgSummary) ReachableFromExported() map[*Summary]bool {
	reach := make(map[*Summary]bool)
	for _, s := range ps.All {
		if s.Decl != nil && s.Decl.Name.IsExported() {
			for _, r := range ps.Closure(s) {
				reach[r] = true
			}
		}
	}
	return reach
}

// constructorNamed reports whether name looks like construction/loading
// (bounded by its input, not a request path).
func constructorNamed(name string) bool {
	for _, prefix := range []string{"New", "new", "Load", "load", "init", "main"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
