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

// TestRun bootstraps a small server on a free port, which the log names,
// answers one predict through the client, and drains to a nil return once
// ctx is cancelled. At 40 samples of one application the store has fewer
// rows than the selection round's winning spec has design columns, so the
// bootstrap serves the stepwise rung's model instead of exiting. An -apps
// value outside 1..7 is an error, and so is a -shardlen, -pop or -gens
// below 1. An unknown flag is reported once on stderr and exits 2; -h lists
// the flags and exits 0.
func TestRun(t *testing.T) {
	for _, apps := range []string{"0", "8"} {
		if err := run(context.Background(), []string{"-bootstrap", "-apps", apps}, io.Discard); err == nil {
			t.Errorf("-apps %s: run returned nil, want an error", apps)
		}
	}
	// The cancelled context makes a run that accepted a size below 1 drain
	// at once and return nil rather than serve.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{{"-shardlen", "0"}, {"-pop", "0"}, {"-gens", "-2"}} {
		if err := run(cancelled, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%s %s: run returned %v, want an error naming %s", args[0], args[1], err, args[0])
		}
	}
	var stderr strings.Builder
	if code := exitCode(run(context.Background(), []string{"-bogus"}, &stderr), &stderr); code != 2 {
		t.Errorf("-bogus: exit %d, want 2", code)
	}
	if n := strings.Count(stderr.String(), "flag provided but not defined"); n != 1 {
		t.Errorf("-bogus: stderr names the bad flag %d times, want once:\n%s", n, stderr.String())
	}
	stderr.Reset()
	if code := exitCode(run(context.Background(), []string{"-h"}, &stderr), &stderr); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-bootstrap") {
		t.Errorf("-h does not list the flags:\n%s", stderr.String())
	}
	for _, tc := range []struct{ samples, rung string }{
		{"48", "genetic"},
		{"40", "stepwise"},
	} {
		t.Run("samples="+tc.samples, func(t *testing.T) {
			info := bootstrapAndPredict(t, tc.samples)
			if info.Rung != tc.rung || info.TrainedRows == 0 {
				t.Errorf("served model %+v, want one trained on the %s rung", info, tc.rung)
			}
		})
	}
}

// bootstrapAndPredict runs hsserve with -bootstrap at the given -samples,
// checks one client predict answers a finite positive CPI and that
// cancelling ctx drains to a nil return, and returns the served model's
// info.
func bootstrapAndPredict(t *testing.T, samples string) hsmodel.ModelInfo {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logR, logW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-bootstrap", "-apps", "1", "-samples", samples, "-pop", "6", "-gens", "2",
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
	cl := hsmodel.NewClient("http://" + a)
	resp, err := cl.Predict(ctx, hsmodel.PredictRequest{X: x[:]})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(resp.CPI) || math.IsInf(resp.CPI, 0) || resp.CPI <= 0 {
		t.Errorf("predicted CPI %v, want finite and positive", resp.CPI)
	}
	info, err := cl.ModelInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("run after cancel = %v, want nil", err)
	}
	return info
}
