package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestRun runs the datacenter example and checks the ordering its doc
// comment claims: model-guided placement is no worse than random, and the
// capacity-free oracle is no worse than model-guided.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	_, summary, ok := strings.Cut(out.String(), "mean CPI: ")
	var model, random, oracle float64
	if _, err := fmt.Sscanf(summary, "model-guided %g | random %g | oracle (no capacity) %g", &model, &random, &oracle); !ok || err != nil {
		t.Fatalf("no mean CPI summary (%v):\n%s", err, out.String())
	}
	if model > random {
		t.Errorf("model-guided mean CPI %v, want at most random's %v", model, random)
	}
	if oracle > model {
		t.Errorf("oracle mean CPI %v, want at most model-guided's %v", oracle, model)
	}
}
