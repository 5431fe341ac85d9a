package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// TestRun lists the table's ids in order, runs the cheapest figure, and
// refuses an unknown id, and an unknown flag with one message on stderr and
// exit 2.
func TestRun(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, []string{"-list"}, &out, io.Discard); err != nil {
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
	if err := run(ctx, []string{"fig3"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"Figure 3", "[fig3 done"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("fig3 output lacks %q:\n%s", s, out.String())
		}
	}

	if err := run(ctx, []string{"fig99"}, new(bytes.Buffer), io.Discard); err == nil {
		t.Error("unknown id fig99: run returned nil")
	}

	var stderr strings.Builder
	if code := exitCode(run(ctx, []string{"-bogus", "fig3"}, io.Discard, &stderr), &stderr); code != 2 {
		t.Errorf("-bogus: exit %d, want 2", code)
	}
	if n := strings.Count(stderr.String(), "flag provided but not defined"); n != 1 {
		t.Errorf("-bogus: stderr names the bad flag %d times, want once:\n%s", n, stderr.String())
	}
}
