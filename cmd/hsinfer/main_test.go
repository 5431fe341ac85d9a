package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hsmodel/internal/isa"
	"hsmodel/internal/profile"
	"hsmodel/internal/serve"
	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

// TestRun trains the smallest model, then reads it back through model -json
// and predict -json: the model is reported trained with the fields the
// server's model route reports for the same file, and the predicted CPI is
// the snapshot's own answer, bit for bit. A -json failure writes an
// ErrorResponse and returns the error. A shard flag with no trace behind
// it, and a train -pop or -gens below 1, is refused with exit 1. A train
// whose rungs both fail keeps the model already at -out
// (trainKeepsLastGood).
func TestRun(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := run(ctx, []string{"train", "-samples", "6", "-shardlen", "5000", "-pop", "6", "-gens", "2", "-out", path}, new(bytes.Buffer), io.Discard); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run(ctx, []string{"model", "-json", "-model", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var info hsmodel.ModelInfo
	if err := json.Unmarshal(out.Bytes(), &info); err != nil {
		t.Fatalf("model -json %q: %v", out.Bytes(), err)
	}
	if !info.Trained {
		t.Fatalf("model -json = %+v, want trained", info)
	}
	if served := servedModelInfo(t, path); !reflect.DeepEqual(info, served) {
		t.Errorf("model -json = %+v\nserver model route = %+v", info, served)
	}

	out.Reset()
	if err := run(ctx, []string{"predict", "-json", "-model", path, "-app", "astar", "-shard", "0"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var pr hsmodel.PredictResponse
	if err := json.Unmarshal(out.Bytes(), &pr); err != nil {
		t.Fatalf("predict -json %q: %v", out.Bytes(), err)
	}
	snap, err := hsmodel.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	app, err := trace.ByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Stream(&isa.SliceStream{Insts: app.ShardTrace(0, snap.ShardLen())}, app.Name, 0)
	want, err := snap.PredictShard(p.X, hsmodel.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(pr.CPI) != math.Float64bits(want) {
		t.Errorf("predict -json CPI %v, snapshot answers %v", pr.CPI, want)
	}

	out.Reset()
	missing := filepath.Join(t.TempDir(), "missing.json")
	if err := run(ctx, []string{"predict", "-json", "-model", missing}, &out, io.Discard); err == nil {
		t.Error("predict -json on a missing model returned nil")
	}
	var er hsmodel.ErrorResponse
	if err := json.Unmarshal(out.Bytes(), &er); err != nil || er.Error == "" {
		t.Errorf("predict -json on a missing model wrote %q, want an ErrorResponse", out.Bytes())
	}

	refused := filepath.Join(t.TempDir(), "refused.json")
	for _, args := range [][]string{
		{"profile", "-shards", "-1"},
		{"profile", "-shards", "0"},
		{"profile", "-shardlen", "0"},
		{"profile", "-shardlen", "-3"},
		{"predict", "-shard", "-1", "-model", path},
		{"predict", "-shardlen", "0", "-model", path},
		{"train", "-shardlen", "-5", "-samples", "6", "-pop", "6", "-gens", "2", "-out", refused},
		{"train", "-pop", "0", "-samples", "6", "-shardlen", "2000", "-gens", "2", "-out", refused},
		{"train", "-gens", "-1", "-samples", "6", "-shardlen", "2000", "-pop", "6", "-out", refused},
	} {
		var stdout, stderr bytes.Buffer
		if code := exitCode(run(ctx, args, &stdout, &stderr), &stderr); code != 1 || !strings.Contains(stderr.String(), args[1]) {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 naming %s", strings.Join(args, " "), code, stderr.String(), args[1])
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q, want nothing", strings.Join(args, " "), stdout.String())
		}
	}
	if _, err := os.Stat(refused); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused train wrote %s (stat: %v)", refused, err)
	}

	// A bad flag is reported once, with the flag list, on stderr; -h lists
	// the flags and succeeds.
	var errOut bytes.Buffer
	if code := exitCode(run(ctx, []string{"predict", "-bogus"}, &out, &errOut), &errOut); code != 2 {
		t.Errorf("predict -bogus: exit %d, want 2", code)
	}
	if n := strings.Count(errOut.String(), "flag provided but not defined"); n != 1 || !strings.Contains(errOut.String(), "-model") {
		t.Errorf("predict -bogus: stderr names the bad flag %d times, want once with the flag list:\n%s", n, errOut.String())
	}
	errOut.Reset()
	if code := exitCode(run(ctx, []string{"model", "-h"}, &out, &errOut), &errOut); code != 0 {
		t.Errorf("model -h: exit %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-model-id") {
		t.Errorf("model -h does not list the flags:\n%s", errOut.String())
	}

	t.Run("train keeps last-good", trainKeepsLastGood)
}

// trainKeepsLastGood: when both rungs of a train fail (here under a
// cancelled context), a model that loads from -out stays the last-good one:
// the file is left byte-identical and train reports that it kept it. With
// nothing at -out, train returns the error.
func trainKeepsLastGood(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	train := []string{"train", "-samples", "6", "-shardlen", "5000", "-pop", "6", "-gens", "2", "-out", path}
	if err := run(context.Background(), train, new(bytes.Buffer), io.Discard); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut bytes.Buffer
	if err := run(cancelled, train, &out, &errOut); err != nil {
		t.Fatalf("train with a model at -out = %v, want nil", err)
	}
	if want := "kept existing model at " + path; !strings.Contains(out.String(), want) {
		t.Errorf("train printed %q, want %q", out.String(), want)
	}
	if !strings.Contains(errOut.String(), "training failed: ") {
		t.Errorf("train logged %q, want the training failure", errOut.String())
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed train rewrote the model at -out")
	}

	missing := filepath.Join(t.TempDir(), "missing.json")
	train[len(train)-1] = missing
	if err := run(cancelled, train, new(bytes.Buffer), io.Discard); !errors.Is(err, context.Canceled) {
		t.Errorf("train with nothing at -out = %v, want the cancellation", err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed train wrote %s (stat: %v)", missing, err)
	}
}

// servedModelInfo loads path into a server as its -model file and returns
// the snapshot fields of GET /v2/models/default/model, with the entry and
// store fields the server adds on top cleared.
func servedModelInfo(t *testing.T, path string) hsmodel.ModelInfo {
	t.Helper()
	srv, err := serve.New(serve.Config{Trainer: hsmodel.New(nil), ModelPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	info, err := hsmodel.NewClient(ts.URL).ModelInfo(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	info.Model, info.Application, info.ArchSpace = "", "", ""
	info.TotalSamples, info.SnapshotVersion, info.SnapshotAgeSec = 0, 0, 0
	info.GramFits, info.QRFallbacks = 0, 0
	return info
}
