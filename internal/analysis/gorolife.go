package analysis

// GoroLife enforces the serving stack's drained-shutdown contract: every
// goroutine started in non-test production code must be joinable or
// cancellable. A spawn is supervised when, somewhere in the transitive
// in-package closure of its body, one of these holds:
//
//   - it calls Done on a WaitGroup some function in the package Waits on;
//   - it closes a channel some function in the package receives from
//     (done-channel join, the batcher's workerDone protocol);
//   - it receives from or ranges over a channel some function in the
//     package closes (queue-drain workers);
//   - it sends on a channel some function in the package receives from
//     (the single-shot errc pattern);
//   - it consumes a cancellable context (ctx.Done()/Err(), or passes a
//     context on to a callee);
//   - it is a method spawn `go x.M(...)` where the package calls a
//     shutdown-shaped method (Close/Shutdown/Stop/Wait) on the same root
//     object, or the spawned call is handed a context.
//
// Anything else is a worker nobody can stop or wait for: it outlives Close,
// races test teardown, and leaks under churn.
var GoroLife = &Analyzer{
	Name: "gorolife",
	Doc:  "goroutines must be joined (WaitGroup/done-channel) or cancellable (ctx)",
	Run:  runGoroLife,
}

func runGoroLife(pass *Pass) {
	ps := pass.Summary()
	for _, sum := range ps.All {
		if isTestFile(pass.Fset, sum.Decl.Pos()) {
			continue
		}
		checkSpawns(pass, ps, sum, sum)
	}
}

// checkSpawns reports unsupervised spawns in sum; encloser is the declared
// function the spawn is attributed to (spawn bodies nest).
func checkSpawns(pass *Pass, ps *PkgSummary, encloser, sum *Summary) {
	for _, sp := range sum.Spawns {
		if !spawnSupervised(pass, ps, sp) {
			pass.Reportf(sp.Stmt.Pos(),
				"goroutine started in %s has no join or cancellation path (join it with a WaitGroup or done-channel, or pass a context it selects on)",
				funcName(encloser.Decl))
		}
		if sp.Body != nil {
			checkSpawns(pass, ps, encloser, sp.Body)
		}
	}
}

func spawnSupervised(pass *Pass, ps *PkgSummary, sp *SpawnSite) bool {
	// Dynamic spawns (go f() through a function variable) are beyond the
	// static graph; stay quiet rather than guess.
	if sp.Dynamic {
		return true
	}

	// Method spawn on a root the package shuts down: go hs.Serve(ln) is
	// supervised by a reachable hs.Shutdown(ctx)/hs.Close().
	if sp.RecvRoot != nil && ps.Union.CloseRoots[sp.RecvRoot] {
		return true
	}

	// A context handed to the spawned call keeps it cancellable.
	if sp.Stmt != nil {
		for _, arg := range sp.Stmt.Call.Args {
			if isContextType(pass.TypeOf(arg)) {
				return true
			}
		}
	}

	// Resolve the spawned body: literal summary, or the in-package callee's.
	var start *Summary
	switch {
	case sp.Body != nil:
		start = sp.Body
	case sp.CalleeLocal:
		start = ps.Funcs[sp.Callee]
	}
	if start == nil {
		// Out-of-package named spawn with no shutdown root and no ctx.
		return false
	}

	for _, s := range ps.Closure(start) {
		if s.UsesContext {
			return true
		}
		for wg := range s.WGDones {
			if ps.Union.WGWaits[wg] {
				return true
			}
		}
		for ch := range s.ChanCloses {
			if ps.Union.ChanRecvs[ch] {
				return true
			}
		}
		for ch := range s.ChanRecvs {
			if ps.Union.ChanCloses[ch] {
				return true
			}
		}
		for ch := range s.ChanSends {
			if ps.Union.ChanRecvs[ch] {
				return true
			}
		}
	}
	return false
}
