package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hsmodel/internal/family"
	"hsmodel/internal/faultinject"
	"hsmodel/internal/genetic"
	"hsmodel/internal/regress"
)

// trainFamilyModeler trains a small modeler through the selection harness so
// its snapshot carries a family name and a scoreboard, and returns it with a
// handful of samples to predict on.
func trainFamilyModeler(t *testing.T) (*Trainer, []Sample) {
	t.Helper()
	m := newSmallModeler(t)
	m.Families = DefaultFamilies()
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	return m, smallCollector().Collect(smallApps(), 5, 2)
}

// TestSaveLoadFamilyRoundTrip: a selection-produced snapshot survives the v4
// save/load cycle with its family identity, scoreboard, provenance, and
// bit-exact predictions intact.
func TestSaveLoadFamilyRoundTrip(t *testing.T) {
	m, samples := trainFamilyModeler(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Snapshot().Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := m.Snapshot()
	if loaded.Family() != orig.Family() || loaded.Family() == "" {
		t.Errorf("family %q, want %q", loaded.Family(), orig.Family())
	}
	if loaded.Rung() != RungGenetic {
		t.Errorf("rung %v, want genetic", loaded.Rung())
	}
	if loaded.TrainedRows() != orig.TrainedRows() {
		t.Errorf("trained rows %d, want %d", loaded.TrainedRows(), orig.TrainedRows())
	}
	wantScores, gotScores := orig.FamilyScores(), loaded.FamilyScores()
	if len(gotScores) != len(wantScores) {
		t.Fatalf("scores %v, want %v", gotScores, wantScores)
	}
	for name, want := range wantScores {
		if got, ok := gotScores[name]; !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("score[%s] = %v, want %v", name, got, want)
		}
	}
	for _, s := range samples {
		want, err1 := orig.PredictShard(s.X, s.HW)
		got, err2 := loaded.PredictShard(s.X, s.HW)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("round-trip prediction %v, want %v", got, want)
		}
	}
}

// TestLoadFamilyFileCorruption damages a saved v4 model file with each
// faultinject corruptor and checks every resulting load failure is one of the
// typed ErrModel* errors — never an untyped decode error and never a
// half-loaded model.
func TestLoadFamilyFileCorruption(t *testing.T) {
	m, _ := trainFamilyModeler(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "model.json")
	if err := m.Snapshot().Save(good); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	typed := []error{
		ErrModelCorrupt, ErrModelVersion, ErrModelIncomplete,
		ErrModelChecksum, ErrModelFamily,
	}
	isTyped := func(err error) bool {
		for _, want := range typed {
			if errors.Is(err, want) {
				return true
			}
		}
		return false
	}
	corruptAndLoad := func(t *testing.T, seed uint64, mode faultinject.CorruptMode) error {
		t.Helper()
		path := filepath.Join(dir, "corrupt.json")
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.CorruptFile(path, seed, mode); err != nil {
			t.Fatal(err)
		}
		snap, err := LoadSnapshot(path)
		if err == nil && !snap.Trained() {
			t.Fatal("load returned an untrained snapshot without an error")
		}
		return err
	}

	t.Run("torn write", func(t *testing.T) {
		err := corruptAndLoad(t, 1, faultinject.Truncate)
		if !errors.Is(err, ErrModelCorrupt) {
			t.Errorf("err = %v, want ErrModelCorrupt", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		err := corruptAndLoad(t, 1, faultinject.Garbage)
		if !errors.Is(err, ErrModelCorrupt) {
			t.Errorf("err = %v, want ErrModelCorrupt", err)
		}
	})
	t.Run("bit rot", func(t *testing.T) {
		// A single flipped byte can land anywhere: in payload bytes (checksum
		// mismatch), in JSON structure (corrupt), in the family or version
		// fields (their own typed errors) — or in unchecksummed provenance,
		// where the load legitimately succeeds. Sweep seeds so the flip visits
		// many offsets: every observed failure must be typed, and the sweep
		// must catch at least one.
		failures := 0
		for seed := uint64(1); seed <= 16; seed++ {
			err := corruptAndLoad(t, seed, faultinject.FlipByte)
			if err == nil {
				continue
			}
			failures++
			if !isTyped(err) {
				t.Errorf("seed %d: untyped load error: %v", seed, err)
			}
		}
		if failures == 0 {
			t.Error("no flipped byte produced a load failure; corruption undetected")
		}
	})
}

// familyFits trains one small snapshot per built-in family — each trainer
// registers that family alone, so its selection round publishes it — and
// returns them by family name with held-out samples to predict on. The fits
// are made once per test binary and shared.
var (
	familyFitsOnce  sync.Once
	familyFitsSnaps map[string]*Snapshot
	familyFitsTrain []Sample
	familyFitsRows  []Sample
	familyFitsErr   error
)

func familyFits(t testing.TB) (map[string]*Snapshot, []Sample) {
	t.Helper()
	familyFitsOnce.Do(func() {
		apps, col := smallApps(), smallCollector()
		train := col.Collect(apps, 40, 1)
		familyFitsTrain = train
		familyFitsRows = col.Collect(apps, 10, 2)
		familyFitsSnaps = make(map[string]*Snapshot)
		for _, fam := range DefaultFamilies() {
			m := NewTrainer(append([]Sample(nil), train...))
			m.ShardLen = testShardLen
			m.Search = genetic.Params{PopulationSize: 16, Generations: 5, Seed: 42}
			m.Families = []family.Family{fam}
			if err := m.Train(context.Background()); err != nil {
				familyFitsErr = fmt.Errorf("training %s alone: %w", fam.Name(), err)
				return
			}
			familyFitsSnaps[fam.Name()] = m.Snapshot()
		}
	})
	if familyFitsErr != nil {
		t.Fatal(familyFitsErr)
	}
	return familyFitsSnaps, familyFitsRows
}

// TestFamilyPayloadRoundTrip: for every built-in family, a fitted model's
// Payload loads back through the family's Load into a model with the same
// description and payload, and on held-out rows both models answer a row
// alone bit for bit as they answer it inside a batch of all of them — the
// batch contract of DESIGN §13.2, which the serving batcher relies on.
func TestFamilyPayloadRoundTrip(t *testing.T) {
	snaps, samples := familyFits(t)
	rows := make([][]float64, len(samples))
	for i, s := range samples {
		rows[i] = s.Row()
	}
	for _, name := range []string{"spline", "residual", "dal"} {
		t.Run(name, func(t *testing.T) {
			snap := snaps[name]
			if snap == nil || snap.Family() != name {
				t.Fatalf("no %s snapshot", name)
			}
			m := snap.fam
			desc := m.Describe()
			if desc.Family != name || desc.Terms == 0 {
				t.Fatalf("description %+v", desc)
			}
			payload, err := m.Payload()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := FamilyByName(name).Load(payload, NumVars)
			if err != nil {
				t.Fatal(err)
			}
			if got := loaded.Describe(); got != desc {
				t.Fatalf("loaded description %+v, want %+v", got, desc)
			}
			again, err := loaded.Payload()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, payload) {
				t.Fatal("loaded model's payload differs from the one it was loaded from")
			}

			batch := make([]float64, len(rows))
			m.PredictBatch(rows, batch)
			loadedBatch := make([]float64, len(rows))
			loaded.PredictBatch(rows, loadedBatch)
			for i, want := range batch {
				if math.IsNaN(want) || math.IsInf(want, 0) {
					t.Fatalf("row %d: prediction %v", i, want)
				}
				var alone, loadedAlone [1]float64
				m.PredictBatch(rows[i:i+1], alone[:])
				loaded.PredictBatch(rows[i:i+1], loadedAlone[:])
				for _, got := range []struct {
					path string
					v    float64
				}{
					{"answered alone", alone[0]},
					{"loaded, answered alone", loadedAlone[0]},
					{"loaded, inside the batch", loadedBatch[i]},
				} {
					if math.Float64bits(got.v) != math.Float64bits(want) {
						t.Fatalf("row %d: %s %v, inside the batch %v", i, got.path, got.v, want)
					}
				}
			}
		})
	}
}

// TestLoadFamilyRungAsGenetic: files written when a selection round
// published on its own "family" rung load on RungGenetic, the rung every
// selection round publishes on now.
func TestLoadFamilyRungAsGenetic(t *testing.T) {
	good, err := os.ReadFile(saveValid(t))
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(good, []byte(`"rung": "genetic"`), []byte(`"rung": "family"`), 1)
	if bytes.Equal(old, good) {
		t.Fatal("rung field not found in saved file")
	}
	p := filepath.Join(t.TempDir(), "family-rung.json")
	if err := os.WriteFile(p, old, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(p)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rung() != RungGenetic {
		t.Errorf("rung %v, want genetic", loaded.Rung())
	}
}

// TestEvaluateOnMatchesPredict: for every built-in family, EvaluateOn's
// metrics, predicted in one batch, are bit for bit those of PredictShard
// answering each sample alone.
func TestEvaluateOnMatchesPredict(t *testing.T) {
	snaps, samples := familyFits(t)
	ds := ToDataset(samples)
	for _, name := range []string{"spline", "residual", "dal"} {
		snap := snaps[name]
		pred := make([]float64, len(samples))
		for i, s := range samples {
			var err error
			if pred[i], err = snap.PredictShard(s.X, s.HW); err != nil {
				t.Fatal(err)
			}
		}
		want := regress.Assess(pred, ds.Y)
		got, err := snap.EvaluateOn(samples)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range [][2]float64{{got.MedAPE, want.MedAPE}, {got.MeanAPE, want.MeanAPE},
			{got.Pearson, want.Pearson}, {got.Spearman, want.Spearman}, {got.R2, want.R2}} {
			if math.Float64bits(c[0]) != math.Float64bits(c[1]) || got.N != want.N {
				t.Fatalf("%s: EvaluateOn %+v, per-sample PredictShard %+v", name, got, want)
			}
		}
	}
}
