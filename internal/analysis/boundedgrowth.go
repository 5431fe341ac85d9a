package analysis

import (
	"go/types"
)

// BoundedGrowth enforces the flat-memory contract behind the reservoir/ring
// stores and the bounded GA memo (ROADMAP: "memory is flat under millions of
// submissions"): a long-lived container — a field reached through a method
// receiver, or a package-level variable — that grows on a request/submission
// path must have eviction or cap evidence somewhere in the package.
//
// Growth sites are `v = append(v, ...)` and map inserts (`m[k] = x`,
// `m[k]++`, `m[k] += x`). Evidence for the same variable identity is any of:
// delete(v, k), clear(v), a len(v) comparison, a truncating self-assignment
// (v = append(v[:i], ...), v = v[:n]), or v = nil. The package summary
// unions evidence across every function and spawned goroutine body
// (PkgSummary.Union), so the eviction may live behind a helper or on a
// sibling path (Unregister balancing Register) and still count.
//
// "Request path" is approximated as: reachable from an exported function of
// the package through the call graph (calls, function references, spawns).
// Constructor-shaped functions (New*/new*/Load*/load*/init/main) are exempt —
// their growth is bounded by their input, not by traffic. Local builders
// (out := append(out, ...)) are exempt by construction: only receiver fields
// and package vars are long-lived targets.
//
// The check is scoped to the serving/training packages where the invariant
// is a production contract; a scratch package accumulating into a slice is
// not a bug.
var BoundedGrowth = &Analyzer{
	Name: "boundedgrowth",
	Doc:  "long-lived containers on request paths must have eviction/cap evidence",
	Run:  runBoundedGrowth,
}

// boundedGrowthPkgs names the package *names* (matching both real packages
// and testdata stand-ins) whose request/submission paths carry the
// flat-memory contract.
var boundedGrowthPkgs = map[string]bool{
	"serve":     true,
	"registry":  true,
	"lifecycle": true,
	"core":      true,
	"genetic":   true,
}

func runBoundedGrowth(pass *Pass) {
	if !boundedGrowthPkgs[pass.PkgName] {
		return
	}
	ps := pass.Summary()
	reach := ps.ReachableFromExported()

	for _, sum := range ps.All {
		if isTestFile(pass.Fset, sum.Decl.Pos()) {
			continue
		}
		if constructorNamed(sum.Decl.Name.Name) {
			continue
		}
		if !reach[sum] {
			continue // not on any exported path; nothing feeds it traffic
		}
		reportGrowth(pass, ps, sum, sum)
	}
}

// reportGrowth flags unbounded growth sites in sum and, transitively, in its
// spawned goroutine bodies (which inherit the encloser's reachability).
func reportGrowth(pass *Pass, ps *PkgSummary, encloser, sum *Summary) {
	seen := make(map[*types.Var]bool)
	for _, g := range sum.Grows {
		if seen[g.Target] || ps.Union.Bounds[g.Target] {
			continue
		}
		seen[g.Target] = true
		pass.Reportf(g.Pos,
			"unbounded growth: %s to %s in %s is reachable from the exported API with no eviction/cap evidence (delete, clear, len comparison, or truncation) anywhere in the package",
			g.Kind, g.Name, funcName(encloser.Decl))
	}
	for _, sp := range sum.Spawns {
		if sp.Body != nil {
			reportGrowth(pass, ps, encloser, sp.Body)
		}
	}
}
