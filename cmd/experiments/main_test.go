package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRun lists the table's ids in order, runs the cheapest figure, and
// refuses an unknown id.
func TestRun(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range table {
		want = append(want, e.id)
	}
	if got := strings.Fields(out.String()); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list printed %v, want %v", got, want)
	}

	out.Reset()
	if err := run(ctx, []string{"fig3"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"Figure 3", "[fig3 done"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("fig3 output lacks %q:\n%s", s, out.String())
		}
	}

	if err := run(ctx, []string{"fig99"}, new(bytes.Buffer)); err == nil {
		t.Error("unknown id fig99: run returned nil")
	}
}
