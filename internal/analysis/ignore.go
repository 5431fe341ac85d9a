package analysis

import (
	"go/token"
	"strings"
)

// ignorePrefix introduces a suppression directive:
//
//	//hslint:ignore <check> <reason>
//
// The directive suppresses diagnostics of the named check on its own line or
// on the line immediately below (so it can ride at the end of the offending
// line or sit on its own line above it). The reason is mandatory. Directives
// are themselves linted: an unknown check name, a missing reason, or a stale
// directive (one that suppresses nothing) is reported under the meta-check
// name "hslint", so dead suppressions cannot accumulate.
const ignorePrefix = "//hslint:ignore"

// metaCheck attributes directive-hygiene diagnostics.
const metaCheck = "hslint"

type ignoreDirective struct {
	pos    token.Position
	check  string
	reason string
	used   bool
}

// collectIgnores extracts every //hslint:ignore directive in the package.
func collectIgnores(pkg *Package) []*ignoreDirective {
	var dirs []*ignoreDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				check, reason, _ := strings.Cut(rest, " ")
				dirs = append(dirs, &ignoreDirective{
					pos:    pkg.Fset.Position(c.Pos()),
					check:  check,
					reason: strings.TrimSpace(reason),
				})
			}
		}
	}
	return dirs
}

// applyIgnores filters diagnostics through the package's ignore directives
// and appends directive-hygiene diagnostics. ran names the checks that
// actually executed: a directive is only stale when its check ran and still
// produced nothing to suppress (a -checks subset run must not condemn
// directives for the checks it skipped).
func applyIgnores(pkg *Package, diags []Diagnostic, ran map[string]bool) []Diagnostic {
	dirs := collectIgnores(pkg)
	if len(dirs) == 0 {
		return diags
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}

	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, dir := range dirs {
			if dir.check != d.Check || dir.pos.Filename != d.Pos.Filename {
				continue
			}
			if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}

	for _, dir := range dirs {
		switch {
		case dir.check == "":
			out = append(out, Diagnostic{Pos: dir.pos, Check: metaCheck,
				Message: "ignore directive names no check: //hslint:ignore <check> <reason>"})
		case !known[dir.check]:
			out = append(out, Diagnostic{Pos: dir.pos, Check: metaCheck,
				Message: "ignore directive names unknown check \"" + dir.check + "\""})
		case dir.reason == "":
			out = append(out, Diagnostic{Pos: dir.pos, Check: metaCheck,
				Message: "ignore directive for \"" + dir.check + "\" has no reason"})
		case !dir.used && ran[dir.check]:
			out = append(out, Diagnostic{Pos: dir.pos, Check: metaCheck,
				Message: "stale ignore directive: no \"" + dir.check + "\" diagnostic here"})
		}
	}
	return out
}
