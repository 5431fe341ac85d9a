package main

import (
	"bytes"
	"context"
	"regexp"
	"strconv"
	"testing"
)

// TestRun runs the quickstart and checks that both printed prediction
// errors, one shard and one whole application, are under 15%.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out); err != nil {
		t.Fatal(err)
	}
	errs := regexp.MustCompile(`\(error ([0-9.]+)%\)`).FindAllStringSubmatch(out.String(), -1)
	if len(errs) != 2 {
		t.Fatalf("found %d prediction errors, want 2:\n%s", len(errs), out.String())
	}
	for _, m := range errs {
		if v, err := strconv.ParseFloat(m[1], 64); err != nil || v >= 15 {
			t.Errorf("prediction error %s%%, want under 15%%:\n%s", m[1], out.String())
		}
	}
}
