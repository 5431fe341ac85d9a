package hsmodel

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hsmodel/internal/hwspace"
)

func TestOptionsApply(t *testing.T) {
	tr := New(nil,
		WithSeed(9),
		WithPopulation(17),
		WithGenerations(4),
		WithShardLen(12_345),
	)
	if tr.Search.Seed != 9 || tr.Search.PopulationSize != 17 || tr.Search.Generations != 4 {
		t.Errorf("search params not applied: %+v", tr.Search)
	}
	if tr.Fitness.Seed != 9 {
		t.Errorf("fitness seed %d, want 9 from WithSeed", tr.Fitness.Seed)
	}
	if tr.ShardLen != 12_345 {
		t.Errorf("shard length %d, want 12345 from WithShardLen", tr.ShardLen)
	}
	// The paper's defaults hold under options that do not touch them.
	if !tr.LogResponse || !tr.Stabilize {
		t.Error("paper defaults lost under options")
	}
}

// TestLifecycleOptionsApply pins the facade plumbing for the control loop:
// the config lands in the controller, the stores honor their bounds, and the
// loop closes cleanly — all without any training machinery.
func TestLifecycleOptionsApply(t *testing.T) {
	lc := NewLifecycle(New(nil), LifecycleConfig{
		MinTrainRows:    99,
		Drift:           DriftConfig{Target: 0.3, Threshold: 2.5},
		MinProfiles:     4,
		CanaryTolerance: 0.1,
		ReservoirCap:    8,
		RingCap:         3,
		Seed:            21,
	})
	st := lc.Status()
	if st.State != "stable" {
		t.Fatalf("initial state %q, want stable", st.State)
	}
	if st.ReservoirCap != 8 || st.RingCap != 3 {
		t.Errorf("store caps %d/%d, want 8/3 from the config", st.ReservoirCap, st.RingCap)
	}

	var s Sample
	s.App = "facade"
	s.HW = Baseline()
	for i := 0; i < 20; i++ {
		s.CPI = float64(i + 1)
		lc.Submit(s)
	}
	st = lc.Status()
	if st.Submissions != 20 {
		t.Errorf("submissions %d, want 20", st.Submissions)
	}
	if st.ReservoirLen > st.ReservoirCap || st.RingLen > st.RingCap {
		t.Errorf("occupancy %d/%d reservoir, %d/%d ring exceeds bounds",
			st.ReservoirLen, st.ReservoirCap, st.RingLen, st.RingCap)
	}
	if err := lc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigFromArch(t *testing.T) {
	counts := hwspace.LevelCounts()
	arch := make([]int, NumHWParams)
	for i := range arch {
		arch[i] = counts[i] - 1
	}
	cfg, err := ConfigFromArch(arch)
	if err != nil {
		t.Fatal(err)
	}
	var ix Indices
	copy(ix[:], arch)
	if cfg != ConfigFromIndices(ix) {
		t.Error("ConfigFromArch disagrees with ConfigFromIndices")
	}

	for _, bad := range [][]int{
		nil,
		make([]int, NumHWParams-1),
		{-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{counts[0], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := ConfigFromArch(bad); err == nil {
			t.Errorf("arch %v accepted, want error", bad)
		}
	}
}

func TestConfigFromWirePrecedence(t *testing.T) {
	cfg := RandomConfig(5)
	got, err := ConfigFromWire([]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, &cfg)
	if err != nil || got != cfg {
		t.Errorf("config should win over arch: got %v err %v", got, err)
	}
	if got, err := ConfigFromWire(nil, nil); err != nil || got != Baseline() {
		t.Errorf("empty wire should resolve to baseline: got %v err %v", got, err)
	}

	// A full config is a trust boundary: every field below 1 is rejected,
	// with the field named, even when a valid arch is also present.
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Width", func(c *Config) { c.Width = 0 }},
		{"DCacheKB", func(c *Config) { c.DCacheKB = -64 }},
		{"L2Lat", func(c *Config) { c.L2Lat = 0 }},
		{"Ports", func(c *Config) { c.Ports = -1 }},
	} {
		bad := cfg
		tc.set(&bad)
		_, err := ConfigFromWire([]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, &bad)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("config with bad %s: err %v, want an error naming the field", tc.field, err)
		}
	}
	if _, err := ConfigFromWire(nil, &Config{}); err == nil {
		t.Error("zero config accepted, want error")
	}
}

// TestSampleWireRoundTrip pins the bit-exactness the serving layer's
// bit-identity guarantee rests on: a Sample survives wire encoding and a
// JSON round trip with every float64 unchanged.
func TestSampleWireRoundTrip(t *testing.T) {
	var s Sample
	s.App, s.AppID, s.Shard = "astar", 3, 7
	for i := range s.X {
		s.X[i] = math.Sqrt(float64(i) + 0.1) // not exactly representable
	}
	s.HW = RandomConfig(42)
	s.CPI = 1.0 / 3.0

	data, err := json.Marshal(SampleToWire(s))
	if err != nil {
		t.Fatal(err)
	}
	var w SampleWire
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	back, err := w.ToSample()
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip changed the sample:\n got %+v\nwant %+v", back, s)
	}

	// The trainer fits log CPI, so a non-positive CPI never crosses the wire.
	for _, cpi := range []float64{0, -1} {
		w.CPI = cpi
		if _, err := w.ToSample(); err == nil {
			t.Errorf("ToSample accepted cpi %v, want error", cpi)
		}
	}

	// Nor does a sample measured on an impossible configuration.
	w.CPI = s.CPI
	bad := s.HW
	bad.Width = -1
	w.Config = &bad
	if _, err := w.ToSample(); err == nil || !strings.Contains(err.Error(), "Width") {
		t.Errorf("ToSample with width -1: err %v, want an error naming Width", err)
	}
}

func TestPredictRequestShardInputs(t *testing.T) {
	x := make([]float64, NumCharacteristics)
	x[0] = 0.25

	xs, hw, err := (PredictRequest{X: x}).ShardInputs()
	if err != nil || len(xs) != 1 || xs[0][0] != 0.25 || hw != Baseline() {
		t.Errorf("single shard: xs=%v hw=%v err=%v", xs, hw, err)
	}
	xs, _, err = (PredictRequest{Shards: [][]float64{x, x, x}}).ShardInputs()
	if err != nil || len(xs) != 3 {
		t.Errorf("multi shard: %d inputs, err=%v", len(xs), err)
	}

	for name, req := range map[string]PredictRequest{
		"empty":   {},
		"both":    {X: x, Shards: [][]float64{x}},
		"shortX":  {X: x[:5]},
		"badArch": {X: x, Arch: []int{99}},
	} {
		if _, _, err := req.ShardInputs(); err == nil {
			t.Errorf("%s request accepted, want error", name)
		}
	}
}
