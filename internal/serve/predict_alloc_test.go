package serve

import (
	"context"
	"testing"

	"hsmodel/internal/hwspace"
	"hsmodel/internal/profile"
)

// TestServePredictAllocs holds the direct single-shard path to its
// allocation rule: once warm, Server.Predict allocates nothing (its one-row
// scratch is pooled).
func TestServePredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	s, err := New(Config{Trainer: newTestTrainer(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, valid := testData(t)
	ctx := context.Background()
	i := 0
	predict := func() {
		v := valid[i%len(valid)]
		i++
		if _, err := s.Predict(ctx, v.X, v.HW); err != nil {
			t.Fatal(err)
		}
	}
	predict() // warm the pooled scratch and the family's predict scratch
	if got := testing.AllocsPerRun(100, predict); got != 0 {
		t.Errorf("Server.Predict makes %v allocs per call, want 0", got)
	}
}

// BenchmarkServePredict measures one single-shard prediction through the
// default entry's direct path — pooled one-row scratch, one snapshot load,
// one PredictBatch — cycling through held-out rows.
func BenchmarkServePredict(b *testing.B) {
	s, err := New(Config{Trainer: newTestTrainer(b)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	_, valid := testData(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := valid[i%len(valid)]
		if _, err := s.Predict(ctx, v.X, v.HW); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePredictBatch measures the steady-state serving batch path end
// to end — pooled job, one queue round trip, contiguous PredictBatch sweeps —
// and asserts its allocation profile in the report (the hot path must be
// zero-allocation once pools are warm).
func BenchmarkServePredictBatch(b *testing.B) {
	tr := newTestTrainer(b)
	// MaxBatch 1: the serial benchmark's single multi-item job flushes
	// immediately instead of waiting out the gather window.
	s, err := New(Config{Trainer: tr, MaxBatch: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	_, valid := testData(b)

	const batch = 64
	xs := make([]profile.Characteristics, batch)
	hws := make([]hwspace.Config, batch)
	for i := range xs {
		v := valid[i%len(valid)]
		xs[i], hws[i] = v.X, v.HW
	}
	out := make([]float64, batch)
	ctx := context.Background()
	if err := s.PredictMany(ctx, xs, hws, out); err != nil { // warm pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PredictMany(ctx, xs, hws, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch), "preds/op")
}
