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
// exit 1, lists every registered check, refuses -fix, -diff and -bogus as
// unknown flags with one message on stderr, nothing on stdout and exit 2,
// and answers -h with the flag list and exit 0.
func TestRun(t *testing.T) {
	ctx := context.Background()
	var out, errOut bytes.Buffer
	err := run(ctx, []string{"-dir", "../../internal/analysis/testdata/floateq"}, &out, &errOut)
	if !errors.Is(err, errFindings) {
		t.Errorf("floateq corpus: run = %v, want errFindings (exit 1)", err)
	}
	if !strings.Contains(out.String(), "[floateq]") {
		t.Errorf("floateq corpus printed no [floateq] finding:\n%s", out.String())
	}

	out.Reset()
	if err := run(ctx, []string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, a := range analysis.All() {
		if !strings.Contains(out.String(), a.Name+"\t") {
			t.Errorf("-list does not name check %s:\n%s", a.Name, out.String())
		}
	}

	for _, bad := range []string{"-fix", "-diff", "-bogus"} {
		out.Reset()
		errOut.Reset()
		if code := exitCode(run(ctx, []string{bad, "./..."}, &out, &errOut), &errOut); code != 2 {
			t.Errorf("hslint %s ./...: exit %d, want 2", bad, code)
		}
		if out.Len() != 0 {
			t.Errorf("hslint %s ./... printed %q, want nothing", bad, out.String())
		}
		if n := strings.Count(errOut.String(), "flag provided but not defined"); n != 1 {
			t.Errorf("hslint %s ./...: stderr names the bad flag %d times, want once:\n%s", bad, n, errOut.String())
		}
	}

	errOut.Reset()
	if code := exitCode(run(ctx, []string{"-h"}, &out, &errOut), &errOut); code != 0 {
		t.Errorf("hslint -h: exit %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-checks") {
		t.Errorf("hslint -h does not list the flags:\n%s", errOut.String())
	}
}
