package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"hsmodel/internal/analysis"
)

// TestRun lints the floateq corpus, which must report floateq findings and
// exit 1, lists every registered check, and refuses -fix and -diff as
// unknown flags without printing anything.
func TestRun(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	err := run(ctx, []string{"-dir", "../../internal/analysis/testdata/floateq"}, &out)
	if !errors.Is(err, errFindings) {
		t.Errorf("floateq corpus: run = %v, want errFindings (exit 1)", err)
	}
	if !strings.Contains(out.String(), "[floateq]") {
		t.Errorf("floateq corpus printed no [floateq] finding:\n%s", out.String())
	}

	out.Reset()
	if err := run(ctx, []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, a := range analysis.All() {
		if !strings.Contains(out.String(), a.Name+"\t") {
			t.Errorf("-list does not name check %s:\n%s", a.Name, out.String())
		}
	}

	for _, removed := range []string{"-fix", "-diff"} {
		out.Reset()
		if err := run(ctx, []string{removed, "./..."}, &out); !errors.Is(err, errUsage) {
			t.Errorf("hslint %s ./...: run = %v, want errUsage (exit 2)", removed, err)
		}
		if out.Len() != 0 {
			t.Errorf("hslint %s ./... printed %q, want nothing", removed, out.String())
		}
	}
}
