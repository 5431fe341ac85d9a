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
// exit 1, and lists every registered check.
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
}
