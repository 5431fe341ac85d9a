package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestRun runs the adaptive example: adapting per shard must beat the
// static balanced configuration's mean CPI, and the update protocol must
// re-specify the model once gemsFDTD's profiles accrue.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[update protocol after 12 profiles: updated") {
		t.Errorf("update protocol did not report updated:\n%s", out.String())
	}
	_, summary, ok := strings.Cut(out.String(), "mean CPI: ")
	var adaptive, static float64
	if _, err := fmt.Sscanf(summary, "adaptive %g vs static-balanced %g", &adaptive, &static); !ok || err != nil {
		t.Fatalf("no mean CPI summary (%v):\n%s", err, out.String())
	}
	if adaptive >= static {
		t.Errorf("adaptive mean CPI %v, want below static-balanced %v", adaptive, static)
	}
}
