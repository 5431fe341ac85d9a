// Baseline support: a committed JSON file of grandfathered findings. A run
// with -baseline still *reports* baselined findings but does not fail on
// them; any finding not in the baseline is fresh and fails the run, and so
// does a stale entry that no live finding matches. Matching ignores line
// numbers (code above a finding moves constantly) and keys on (check,
// module-relative file, message) as a multiset, so k occurrences in the
// baseline forgive at most k live findings.
package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// BaselineEntry identifies one grandfathered finding.
type BaselineEntry struct {
	Check   string `json:"check"`
	File    string `json:"file"` // slash-relative to the module root
	Message string `json:"message"`
}

// Baseline is the committed set of grandfathered findings.
type Baseline struct {
	Findings []BaselineEntry `json:"findings"`
}

// ReadBaseline loads a baseline file. A missing file is an empty baseline
// only when allowMissing is set (so -write-baseline bootstraps cleanly).
func ReadBaseline(path string, allowMissing bool) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) && allowMissing {
			return &Baseline{}, nil
		}
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return &b, nil
}

// baselineKey normalizes one diagnostic to its matching identity.
func baselineKey(check, file, message string) string {
	return check + "\x00" + file + "\x00" + message
}

// relFile makes a diagnostic's filename slash-relative to root.
func relFile(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// Match partitions diags against the baseline: matched[i] is true when
// diags[i] is grandfathered, and fresh counts the unmatched diagnostics.
// stale lists the entries no diagnostic matched, among those this run could
// have produced: the entry's check ran (directive hygiene always does) and
// its file is one of pkgs' files. A -checks subset or a narrower pattern
// must not condemn entries it never looked at.
func (b *Baseline) Match(diags []Diagnostic, root string, pkgs []*Package, analyzers []*Analyzer) (matched []bool, fresh int, stale []BaselineEntry) {
	budget := make(map[string]int, len(b.Findings))
	for _, e := range b.Findings {
		budget[baselineKey(e.Check, e.File, e.Message)]++
	}
	matched = make([]bool, len(diags))
	for i, d := range diags {
		key := baselineKey(d.Check, relFile(root, d.Pos.Filename), d.Message)
		if budget[key] > 0 {
			budget[key]--
			matched[i] = true
		} else {
			fresh++
		}
	}

	ran := map[string]bool{metaCheck: true}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	analyzed := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			analyzed[relFile(root, pkg.Fset.Position(f.Pos()).Filename)] = true
		}
	}
	for _, e := range b.Findings {
		key := baselineKey(e.Check, e.File, e.Message)
		if budget[key] > 0 {
			budget[key]--
			if ran[e.Check] && analyzed[e.File] {
				stale = append(stale, e)
			}
		}
	}
	return matched, fresh, stale
}

// WriteBaseline serializes diags as a new baseline file, sorted for stable
// diffs.
func WriteBaseline(path string, diags []Diagnostic, root string) error {
	b := Baseline{Findings: make([]BaselineEntry, 0, len(diags))}
	for _, d := range diags {
		b.Findings = append(b.Findings, BaselineEntry{
			Check:   d.Check,
			File:    relFile(root, d.Pos.Filename),
			Message: d.Message,
		})
	}
	sort.Slice(b.Findings, func(i, j int) bool {
		a, c := b.Findings[i], b.Findings[j]
		if a.File != c.File {
			return a.File < c.File
		}
		if a.Check != c.Check {
			return a.Check < c.Check
		}
		return a.Message < c.Message
	})
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
