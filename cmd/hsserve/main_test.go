package main

import (
	"bufio"
	"context"
	"io"
	"math"
	"strings"
	"testing"

	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

// TestRun bootstraps a small server on a free port, which the log
// names, answers one predict through the client, and drains to a nil return
// once ctx is cancelled. An -apps value outside 1..7 is an error.
func TestRun(t *testing.T) {
	for _, apps := range []string{"0", "8"} {
		if err := run(context.Background(), []string{"-bootstrap", "-apps", apps}, io.Discard); err == nil {
			t.Errorf("-apps %s: run returned nil, want an error", apps)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logR, logW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-bootstrap", "-apps", "1", "-samples", "48", "-pop", "6", "-gens", "2",
			"-shardlen", "5000", "-addr", "127.0.0.1:0"}, logW)
		logW.Close()
	}()
	// Read the log until the listener names its address, then keep draining
	// it so the server never blocks on a log write.
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(logR)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
		close(addr)
	}()
	a, ok := <-addr
	if !ok {
		t.Fatalf("log ended without a listening address; run returned %v", <-done)
	}

	col := hsmodel.Collector{ShardLen: 5000}
	x := col.CollectPairs(trace.SPEC2006(), []int{0}, []int{1}, []hsmodel.Config{hsmodel.Baseline()})[0].X
	resp, err := hsmodel.NewClient("http://"+a).Predict(ctx, hsmodel.PredictRequest{X: x[:]})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(resp.CPI) || math.IsInf(resp.CPI, 0) || resp.CPI <= 0 {
		t.Errorf("predicted CPI %v, want finite and positive", resp.CPI)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("run after cancel = %v, want nil", err)
	}
}
