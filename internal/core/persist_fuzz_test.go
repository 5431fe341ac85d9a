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

// FuzzLoadSnapshot writes arbitrary bytes to a model file and loads it. A
// load either fails with one of the typed ErrModel* errors or returns a
// snapshot whose predictions on the seed rows are finite; it never panics.
// The seeds are a freshly saved model, its three faultinject corruptions, and
// the same model as a version-3 file. Run it with
//
//	go test -run '^$' -fuzz '^FuzzLoadSnapshot$' -fuzztime 10s ./internal/core
func FuzzLoadSnapshot(f *testing.F) {
	m, rows := trainSmallModeler(f)
	dir := f.TempDir()
	good := filepath.Join(dir, "model.json")
	if err := m.Save(good, testShardLen); err != nil {
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

	saved, model := legacyModel(f, data)
	sum, err := modelChecksum(model)
	if err != nil {
		f.Fatal(err)
	}
	v3, err := json.Marshal(SavedModel{
		Version:     3,
		ShardLen:    saved.ShardLen,
		Rung:        saved.Rung,
		TrainedRows: saved.TrainedRows,
		Checksum:    sum,
		Model:       model,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)

	sentinels := []error{ErrModelCorrupt, ErrModelVersion, ErrModelIncomplete,
		ErrModelShape, ErrModelChecksum, ErrModelFamily}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "model.json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := LoadSnapshot(p)
		if err != nil {
			for _, sentinel := range sentinels {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("LoadSnapshot error matches no ErrModel* sentinel: %v", err)
		}
		for _, r := range rows {
			y, err := s.PredictShard(r.X, r.HW)
			if err != nil || math.IsNaN(y) || math.IsInf(y, 0) {
				t.Fatalf("loaded snapshot predicts %v (err %v) on a seed row", y, err)
			}
		}
	})
}
