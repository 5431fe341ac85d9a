package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsmodel/internal/regress"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	tr, valid := trainSmallModeler(t)
	m := tr.Snapshot()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ShardLen() != testShardLen {
		t.Errorf("shard length %d, want %d", loaded.ShardLen(), testShardLen)
	}
	// Training provenance must survive the round trip.
	if loaded.Rung() != RungGenetic {
		t.Errorf("rung %v, want genetic", loaded.Rung())
	}
	if loaded.TrainedRows() != m.TrainedRows() {
		t.Errorf("trained rows %d, want %d", loaded.TrainedRows(), m.TrainedRows())
	}
	// Predictions must match the in-memory model exactly.
	for _, s := range valid[:5] {
		want, err1 := m.PredictShard(s.X, s.HW)
		got, err2 := loaded.PredictShard(s.X, s.HW)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("round-trip prediction %v, want %v", got, want)
		}
	}
	// A trainer adopting the snapshot serves the same predictions.
	fresh := NewTrainer(nil)
	fresh.Adopt(loaded)
	want, _ := m.PredictShard(valid[0].X, valid[0].HW)
	got, err := fresh.Snapshot().PredictShard(valid[0].X, valid[0].HW)
	if err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("adopted snapshot prediction %v (err %v), want %v", got, err, want)
	}
}

func TestSaveBeforeTrainFails(t *testing.T) {
	if err := NewTrainer(nil).Snapshot().Save(filepath.Join(t.TempDir(), "m.json")); err == nil {
		t.Error("Save before Train should fail")
	}
}

func TestSaveLeavesNoTempFiles(t *testing.T) {
	m, _ := trainSmallModeler(t)
	dir := t.TempDir()
	if err := m.Snapshot().Save(filepath.Join(dir, "model.json")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory after Save: %v, want only model.json", names)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	// Saving over an existing model must replace it wholesale (rename), so a
	// reader always sees a complete file.
	m, _ := trainSmallModeler(t)
	s := m.Snapshot()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	next := newSnapshot(s.famName, s.fam, s.scores, testShardLen+1, s.rung, s.trainedRows)
	if err := next.Save(path); err != nil {
		t.Fatal(err)
	}
	if s, err := LoadSnapshot(path); err != nil || s.ShardLen() != testShardLen+1 {
		t.Fatalf("LoadSnapshot after overwrite: shardLen=%d err=%v", s.ShardLen(), err)
	}
}

// saveValid trains once and returns the path of a known-good model file.
func saveValid(t *testing.T) string {
	t.Helper()
	m, _ := trainSmallModeler(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Snapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// splineModel decodes the spline regression out of a saved file's payload,
// so tests can rebuild files around the same fitted model.
func splineModel(t testing.TB, good []byte) (SavedModel, *regress.Model) {
	t.Helper()
	var saved SavedModel
	if err := json.Unmarshal(good, &saved); err != nil {
		t.Fatal(err)
	}
	var model regress.Model
	if err := json.Unmarshal(saved.Payload, &model); err != nil {
		t.Fatal(err)
	}
	return saved, &model
}

// legacyFile encodes model the way format versions 2 and 3 stored it — the
// bare regression under a "model" key, checksummed over its own encoding,
// with saved's shard length (and, from version 3, its provenance) — which
// LoadSnapshot refuses with ErrModelVersion.
func legacyFile(t testing.TB, saved SavedModel, model *regress.Model, version int) []byte {
	t.Helper()
	raw, err := json.Marshal(model)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := payloadChecksum(raw)
	if err != nil {
		t.Fatal(err)
	}
	file := map[string]any{"version": version, "shard_len": saved.ShardLen, "checksum": sum, "model": model}
	if version >= 3 {
		file["rung"], file["trained_rows"] = saved.Rung, saved.TrainedRows
	}
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadRefusesNonRegularAndOversized: LoadSnapshot reads only a regular
// file of at most maxModelFileBytes. A device and a directory are refused
// before any read, and a sparse file one byte over the bound is refused
// without being read to its end.
func TestLoadRefusesNonRegularAndOversized(t *testing.T) {
	for _, p := range []string{os.DevNull, t.TempDir()} {
		if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelNotRegular) {
			t.Errorf("%s: err = %v, want ErrModelNotRegular", p, err)
		}
	}
	big := filepath.Join(t.TempDir(), "big.json")
	f, err := os.Create(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(maxModelFileBytes + 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(big); !errors.Is(err, ErrModelTooLarge) {
		t.Errorf("file of %d bytes: err = %v, want ErrModelTooLarge", maxModelFileBytes+1, err)
	}
}

// TestLoadFailureModes exercises every corruption class with the distinct
// typed error it must map to.
func TestLoadFailureModes(t *testing.T) {
	good, err := os.ReadFile(saveValid(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("truncated JSON", func(t *testing.T) {
		p := write("torn.json", good[:len(good)/2])
		if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelCorrupt) {
			t.Errorf("err = %v, want ErrModelCorrupt", err)
		}
	})

	t.Run("not JSON at all", func(t *testing.T) {
		p := write("garbage.json", []byte("not json at all"))
		if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelCorrupt) {
			t.Errorf("err = %v, want ErrModelCorrupt", err)
		}
	})

	t.Run("wrong version", func(t *testing.T) {
		bad := strings.Replace(string(good), `"version": 4`, `"version": 1`, 1)
		if bad == string(good) {
			t.Fatal("version field not found in saved file")
		}
		p := write("badver.json", []byte(bad))
		if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelVersion) {
			t.Errorf("err = %v, want ErrModelVersion", err)
		}
	})

	t.Run("future version", func(t *testing.T) {
		bad := strings.Replace(string(good), `"version": 4`, `"version": 99`, 1)
		p := write("future.json", []byte(bad))
		if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelVersion) {
			t.Errorf("err = %v, want ErrModelVersion", err)
		}
	})

	// Versions 2 and 3 stored a bare spline regression; LoadSnapshot
	// refuses them by version before reading anything else.
	for _, version := range []int{2, 3} {
		t.Run(fmt.Sprintf("version %d", version), func(t *testing.T) {
			saved, model := splineModel(t, good)
			p := write("legacy.json", legacyFile(t, saved, model, version))
			if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelVersion) {
				t.Errorf("err = %v, want ErrModelVersion", err)
			}
		})
	}

	t.Run("incomplete legacy model", func(t *testing.T) {
		p := write("empty3.json", []byte(`{"version":3,"shard_len":100}`))
		if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelVersion) {
			t.Errorf("err = %v, want ErrModelVersion", err)
		}
	})

	t.Run("incomplete family file", func(t *testing.T) {
		p := write("empty4.json", []byte(`{"version":4,"shard_len":100,"family":"spline"}`))
		if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelIncomplete) {
			t.Errorf("err = %v, want ErrModelIncomplete", err)
		}
	})

	t.Run("unknown family", func(t *testing.T) {
		var saved SavedModel
		if err := json.Unmarshal(good, &saved); err != nil {
			t.Fatal(err)
		}
		saved.Family = "perceptron"
		data, err := json.Marshal(saved)
		if err != nil {
			t.Fatal(err)
		}
		p := write("unknownfam.json", data)
		if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelFamily) {
			t.Errorf("err = %v, want ErrModelFamily", err)
		}
	})

	t.Run("wrong variable count legacy", func(t *testing.T) {
		// A version-3 file over the wrong variable space is refused by its
		// version before its shape is looked at.
		saved, model := splineModel(t, good)
		model.Prep.Names = model.Prep.Names[:5]
		model.Prep.Powers = model.Prep.Powers[:5]
		p := write("shape.json", legacyFile(t, saved, model, 3))
		if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelVersion) {
			t.Errorf("err = %v, want ErrModelVersion", err)
		}
	})

	t.Run("wrong variable count family payload", func(t *testing.T) {
		// A well-formed, correctly checksummed payload over the wrong
		// variable space must be rejected by the family's Load validation.
		saved, model := splineModel(t, good)
		model.Prep.Names = model.Prep.Names[:5]
		model.Prep.Powers = model.Prep.Powers[:5]
		payload, err := json.Marshal(model)
		if err != nil {
			t.Fatal(err)
		}
		saved.Payload = payload
		saved.Checksum, err = payloadChecksum(payload)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(saved)
		if err != nil {
			t.Fatal(err)
		}
		p := write("shape4.json", data)
		if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelFamily) {
			t.Errorf("err = %v, want ErrModelFamily", err)
		}
	})

	t.Run("bad checksum", func(t *testing.T) {
		// Flip one coefficient digit without touching the stored checksum:
		// the payload no longer matches and LoadSnapshot must refuse it.
		saved, model := splineModel(t, good)
		model.Coef[0] += 1e-3
		payload, err := json.Marshal(model)
		if err != nil {
			t.Fatal(err)
		}
		saved.Payload = payload
		data, err := json.Marshal(saved)
		if err != nil {
			t.Fatal(err)
		}
		p := write("bitrot.json", data)
		if _, err := LoadSnapshot(p); !errors.Is(err, ErrModelChecksum) {
			t.Errorf("err = %v, want ErrModelChecksum", err)
		}
	})

	t.Run("missing file", func(t *testing.T) {
		if _, err := LoadSnapshot(filepath.Join(dir, "missing.json")); err == nil {
			t.Error("missing file should fail")
		}
	})
}

// sealedFile writes payload as the payload of saved, sealed with a matching
// checksum, to a new file and returns its path.
func sealedFile(t *testing.T, saved SavedModel, payload []byte) string {
	t.Helper()
	saved.Payload = payload
	var err error
	if saved.Checksum, err = payloadChecksum(payload); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(saved)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "v4.json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLoadRejectsMalformedModel: a payload whose checksum matches but whose
// regression cannot be evaluated — too few coefficients for its spec, a
// preprocessing slice short of a variable, an interaction naming a variable
// that does not exist, an empty prediction envelope — is refused at load
// time with ErrModelFamily. A load that let the one-coefficient model
// through would hand the predict path an index out of range; one that let
// the envelope-less model through would serve e^1000 = +Inf.
func TestLoadRejectsMalformedModel(t *testing.T) {
	good, err := os.ReadFile(saveValid(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(m *regress.Model)
	}{
		{"one coefficient", func(m *regress.Model) { m.Coef = m.Coef[:1] }},
		{"extra coefficient", func(m *regress.Model) { m.Coef = append(m.Coef, 0.5) }},
		{"short knots", func(m *regress.Model) { m.Prep.Knots = m.Prep.Knots[:NumVars-1] }},
		{"short clamp range", func(m *regress.Model) { m.Prep.ZHi = m.Prep.ZHi[:3] }},
		{"short means", func(m *regress.Model) { m.Prep.Means = m.Prep.Means[:NumVars-1] }},
		{"interaction out of range", func(m *regress.Model) {
			m.Spec.Interactions = append(m.Spec.Interactions, regress.Interaction{I: 0, J: NumVars})
		}},
		{"no preprocessing", func(m *regress.Model) { m.Prep = nil }},
		{"no envelope", func(m *regress.Model) {
			m.YLo, m.YHi = 0, 0
			m.Coef[0] = 1000
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			saved, model := splineModel(t, good)
			tc.mutate(model)

			payload, err := json.Marshal(model)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSnapshot(sealedFile(t, saved, payload)); !errors.Is(err, ErrModelFamily) {
				t.Fatalf("err = %v, want ErrModelFamily", err)
			}
		})
	}
}

// TestLoadIgnoresRetiredModelKeys: spline payloads written before the fitted
// regression dropped its Columns, Rank and Dropped fields still carry those
// keys. Such a file loads, and predicts bit for bit as the model it was
// written from.
func TestLoadIgnoresRetiredModelKeys(t *testing.T) {
	tr, valid := trainSmallModeler(t)
	orig := tr.Snapshot()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	saved, model := splineModel(t, good)
	var fields map[string]any
	if err := json.Unmarshal(saved.Payload, &fields); err != nil {
		t.Fatal(err)
	}
	columns := make([]map[string]any, len(model.Coef))
	for j := range columns {
		columns[j] = map[string]any{"Name": fmt.Sprintf("c%d", j), "Var": -1, "Interaction": nil}
	}
	fields["Columns"] = columns
	fields["Rank"] = len(model.Coef) - 1
	fields["Dropped"] = []int{len(model.Coef) - 1}
	payload, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(sealedFile(t, saved, payload))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range valid {
		want, err1 := orig.PredictShard(s.X, s.HW)
		got, err2 := loaded.PredictShard(s.X, s.HW)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("prediction %v, want %v", got, want)
		}
	}
}
