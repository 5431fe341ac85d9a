package analysis

import (
	"path/filepath"
	"testing"
)

// TestBaselineStaleEntries: a baseline entry that no live finding matches is
// stale, like a directive that suppresses nothing, unless this run could not
// have produced it: its check did not run, or its file was not analyzed.
func TestBaselineStaleEntries(t *testing.T) {
	root := moduleRoot(t)
	pkgs := loadGolden(t, filepath.Join("testdata", "floateq"))
	analyzers := []*Analyzer{FloatEq}
	diags := Run(pkgs, analyzers)
	if len(diags) == 0 {
		t.Fatal("floateq fixture produced no findings")
	}
	var base Baseline
	for _, d := range diags {
		base.Findings = append(base.Findings, BaselineEntry{
			Check: d.Check, File: relFile(root, d.Pos.Filename), Message: d.Message,
		})
	}
	file := base.Findings[0].File

	if _, fresh, stale := base.Match(diags, root, pkgs, analyzers); fresh != 0 || len(stale) != 0 {
		t.Fatalf("exact baseline: fresh %d, stale %v; want 0, none", fresh, stale)
	}

	gone := BaselineEntry{Check: "floateq", File: file, Message: "a finding the code no longer has"}
	directive := BaselineEntry{Check: metaCheck, File: file, Message: "stale ignore directive: gone too"}
	extraCopy := base.Findings[0] // k+1 copies forgive k findings; one is left over
	skippedCheck := BaselineEntry{Check: "errcmp", File: file, Message: "errcmp did not run"}
	otherFile := BaselineEntry{Check: "floateq", File: "internal/core/trainer.go", Message: "file not analyzed"}
	base.Findings = append(base.Findings, gone, skippedCheck, directive, otherFile, extraCopy)

	matched, fresh, stale := base.Match(diags, root, pkgs, analyzers)
	if fresh != 0 {
		t.Errorf("fresh = %d, want 0", fresh)
	}
	for i, m := range matched {
		if !m {
			t.Errorf("finding %s not matched", diags[i])
		}
	}
	left := map[BaselineEntry]int{gone: 1, directive: 1, extraCopy: 1}
	for _, e := range stale {
		left[e]--
	}
	for e, n := range left {
		if n != 0 {
			t.Errorf("stale = %v, want gone, directive and extraCopy once each (off by %d for %v)", stale, -n, e)
		}
	}
}
