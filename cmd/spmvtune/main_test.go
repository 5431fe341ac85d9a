package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestRun tunes the smallest matrix scale once model-guided and once by
// simulation. Both print four rows of finite figures. Ranked by simulation,
// every strategy starts from the baseline point it is measured against, so
// the baseline reads exactly 1.00x and no strategy falls below it. (The
// model-guided search guarantees neither, nor that coordinated tuning beats
// application tuning: the coordinated search never revisits the baseline
// cache's block sweep.) An unknown flag is reported once on stderr and exits
// 2.
func TestRun(t *testing.T) {
	var stderr strings.Builder
	if code := exitCode(run(context.Background(), []string{"-bogus"}, io.Discard, &stderr), &stderr); code != 2 {
		t.Errorf("-bogus: exit %d, want 2", code)
	}
	if n := strings.Count(stderr.String(), "flag provided but not defined"); n != 1 {
		t.Errorf("-bogus: stderr names the bad flag %d times, want once:\n%s", n, stderr.String())
	}

	for _, tc := range []struct {
		args       []string
		exhaustive bool
	}{
		{[]string{"-scale", "64", "-samples", "40", "-candidates", "10"}, false},
		{[]string{"-scale", "64", "-samples", "40", "-exhaustive", "-candidates", "4"}, true},
	} {
		args := tc.args
		var out bytes.Buffer
		if err := run(context.Background(), args, &out, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		rows := tuneRows(t, out.String())
		if len(rows) != 4 {
			t.Fatalf("%v: %d strategy rows, want 4:\n%s", args, len(rows), out.String())
		}
		if !tc.exhaustive {
			continue
		}
		if rows["baseline"] != "1.00x" {
			t.Errorf("%v: baseline speedup %s, want 1.00x", args, rows["baseline"])
		}
		for name, speedup := range rows {
			if v, _ := strconv.ParseFloat(strings.TrimSuffix(speedup, "x"), 64); v < 1 {
				t.Errorf("%v: %s speedup %s is below the baseline", args, name, speedup)
			}
		}
	}
}

// tuneRows parses the strategy table into each strategy's printed speedup,
// failing the test on a row whose figures are not finite numbers.
func tuneRows(t *testing.T, out string) map[string]string {
	t.Helper()
	_, table, ok := strings.Cut(out, "\nstrategy ")
	if !ok {
		t.Fatalf("no strategy table in:\n%s", out)
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(table), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 5 {
			t.Fatalf("short row %q", line)
		}
		for _, s := range []string{f[1], strings.TrimSuffix(f[2], "x"), f[3]} {
			if v, err := strconv.ParseFloat(s, 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("row %q: %q is not a finite number", line, s)
			}
		}
		rows[f[0]] = f[2]
	}
	return rows
}
