package spmv

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"hsmodel/internal/cache"
	"hsmodel/internal/genetic"
)

func TestModelGuidedTuningAgreesWithExhaustive(t *testing.T) {
	// The paper's tractability argument: model-guided co-tuning should find
	// configurations close to exhaustive-simulation tuning at a fraction of
	// the simulations.
	spec, _ := ByName("olafu")
	s := NewStudy(spec.Scaled(64))
	perf, err := TrainDomainModel(context.Background(), spec.Name, s.Sample(250, 3), PredictMFlops, genetic.Params{PopulationSize: 20, Generations: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	guided := Tune(TuneOptions{Study: s, Model: perf, CacheCandidates: 40, Seed: 9})
	exhaustive := Tune(TuneOptions{Study: s, CacheCandidates: 40, Seed: 9})

	// Same candidate pools: the guided coordinated result must reach at
	// least 80% of the exhaustively found speedup.
	if guided.CoordSpeedup() < 0.8*exhaustive.CoordSpeedup() {
		t.Errorf("model-guided coordinated %vx too far below exhaustive %vx",
			guided.CoordSpeedup(), exhaustive.CoordSpeedup())
	}
	if guided.AppSpeedup() < 0.8*exhaustive.AppSpeedup() {
		t.Errorf("model-guided app tuning %vx too far below exhaustive %vx",
			guided.AppSpeedup(), exhaustive.AppSpeedup())
	}
}

func TestNMRUAndRandomPoliciesSimulate(t *testing.T) {
	// Every Table 5 replacement policy must produce sane kernel timings.
	spec, _ := ByName("crystk02")
	s := NewStudy(spec.Scaled(64))
	base := BaselineCache()
	var flops []float64
	for _, pol := range []struct {
		d, i string
	}{{"LRU", "LRU"}, {"NMRU", "NMRU"}, {"RND", "RND"}} {
		cfg := base
		var err error
		if cfg.DRepl, err = cache.ParseReplacement(pol.d); err != nil {
			t.Fatal(err)
		}
		if cfg.IRepl, err = cache.ParseReplacement(pol.i); err != nil {
			t.Fatal(err)
		}
		res := s.Simulate(3, 3, cfg)
		if res.MFlops() <= 0 {
			t.Fatalf("%s: non-positive Mflop/s", pol.d)
		}
		flops = append(flops, res.MFlops())
	}
	// Policies should differ somewhat but stay within 2x of each other.
	for _, f := range flops {
		if f < flops[0]/2 || f > flops[0]*2 {
			t.Errorf("replacement policies implausibly far apart: %v", flops)
		}
	}
}

// TestTuneGolden pins the tuner's choices bit for bit: every strategy's
// block size, cache and measured Mflop/s and nJ/flop, for a model-guided and
// an exhaustive Tune on one small matrix.
func TestTuneGolden(t *testing.T) {
	spec, err := ByName("olafu")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(spec.Scaled(64))
	perf, err := TrainDomainModel(context.Background(), spec.Name, s.Sample(120, 3), PredictMFlops, genetic.Params{PopulationSize: 12, Generations: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, m := range []*DomainModel{perf, nil} {
		res := Tune(TuneOptions{Study: s, Model: m, CacheCandidates: 16, Seed: 4})
		for _, ch := range []TuneChoice{res.Baseline, res.AppTuned, res.ArchTuned, res.Coordinated} {
			fmt.Fprintf(h, "%d|%d|%+v|", ch.R, ch.C, ch.Cfg)
			for _, f := range []float64{ch.MFlops, ch.NJFlop} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
				h.Write(b[:])
			}
		}
	}
	const want = "7440e8733e3de67081b91014be6ecf3881f0692e534da44190dcac0da4e763a3"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("tuning hash %s, want %s", got, want)
	}
}
