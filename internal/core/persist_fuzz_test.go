package core

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hsmodel/internal/faultinject"
)

// modelSentinels are the typed errors every failed LoadSnapshot must match.
var modelSentinels = []error{ErrModelCorrupt, ErrModelVersion, ErrModelIncomplete,
	ErrModelChecksum, ErrModelFamily, ErrModelTooLarge}

// loadOrPredictFinite loads path and fails t unless the load fails with one
// of modelSentinels or the snapshot predicts finite values on rows as one
// batch, each row with the bits it gets answered alone.
func loadOrPredictFinite(t *testing.T, path string, rows []Sample) {
	t.Helper()
	s, err := LoadSnapshot(path)
	if err != nil {
		for _, sentinel := range modelSentinels {
			if errors.Is(err, sentinel) {
				return
			}
		}
		t.Fatalf("LoadSnapshot error matches no ErrModel* sentinel: %v", err)
	}
	batch := make([][]float64, len(rows))
	for i, r := range rows {
		batch[i] = r.Row()
	}
	out := make([]float64, len(rows))
	if err := s.PredictBatch(batch, out); err != nil {
		t.Fatal(err)
	}
	for i, y := range out {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("loaded snapshot batch-predicts %v on seed row %d", y, i)
		}
		alone, err := s.PredictShard(rows[i].X, rows[i].HW)
		if err != nil || math.Float64bits(alone) != math.Float64bits(y) {
			t.Fatalf("seed row %d: answered alone %v (err %v), inside the batch %v", i, alone, err, y)
		}
	}
}

// FuzzLoadSnapshot writes arbitrary bytes to a model file and loads it. A
// load either fails with one of the typed ErrModel* errors or returns a
// snapshot whose predictions on the seed rows are finite; it never panics.
// The seeds are a freshly saved model, its three faultinject corruptions, and
// the same model as a version-3 file, which must fail with ErrModelVersion.
// Run it with
//
//	go test -run '^$' -fuzz '^FuzzLoadSnapshot$' -fuzztime 10s ./internal/core
func FuzzLoadSnapshot(f *testing.F) {
	m, rows := trainSmallModeler(f)
	dir := f.TempDir()
	good := filepath.Join(dir, "model.json")
	if err := m.Snapshot().Save(good); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	for _, mode := range []faultinject.CorruptMode{faultinject.Truncate, faultinject.FlipByte, faultinject.Garbage} {
		p := filepath.Join(dir, "corrupt.json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			f.Fatal(err)
		}
		if err := faultinject.CorruptFile(p, 7, mode); err != nil {
			f.Fatal(err)
		}
		bad, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bad)
	}

	// A version-3 file of the same model: refused by its version.
	saved, model := splineModel(f, data)
	v3 := legacyFile(f, saved, model, 3)
	p := filepath.Join(dir, "v3.json")
	if err := os.WriteFile(p, v3, 0o644); err != nil {
		f.Fatal(err)
	}
	if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelVersion) {
		f.Fatalf("version-3 seed: err = %v, want ErrModelVersion", err)
	}
	f.Add(v3)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "model.json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loadOrPredictFinite(t, p, rows)
	})
}

// FuzzLoadSnapshotPayload reaches the structure checks FuzzLoadSnapshot
// cannot get to past the checksum: the fuzzed bytes become the payload of a
// version-4 file for the fuzzed family name, sealed with a matching
// checksum. A load either fails with one of the typed ErrModel* errors or
// returns a snapshot whose predictions on the seed rows are finite; it never
// panics. The seeds are a spline, a residual and a dal payload;
// testdata/fuzz/FuzzLoadSnapshotPayload holds a spline payload cut to one
// coefficient, whose first prediction panics if the load lets it through,
// and one with an empty prediction envelope (YLo = YHi = 0) and an
// intercept of 1000, which predicts +Inf if the load lets it through.
// Run it with
//
//	go test -run '^$' -fuzz '^FuzzLoadSnapshotPayload$' -fuzztime 10s ./internal/core
func FuzzLoadSnapshotPayload(f *testing.F) {
	snaps, rows := familyFits(f)
	for _, name := range []string{"spline", "residual", "dal"} {
		payload, err := snaps[name].fam.Payload()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(name, []byte(payload))
	}
	f.Fuzz(func(t *testing.T, famName string, payload []byte) {
		if !json.Valid(payload) {
			return // the file would not parse: FuzzLoadSnapshot's ground
		}
		sum, err := payloadChecksum(payload)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(SavedModel{
			Version:  savedModelVersion,
			ShardLen: testShardLen,
			Family:   famName,
			Checksum: sum,
			Payload:  payload,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "model.json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loadOrPredictFinite(t, p, rows)
	})
}
