package core

import "testing"

// TestPredictAllocs holds the predict path to its allocation rule. Once
// warm, a batch through each family's model and through
// Snapshot.PredictBatch and Snapshot.PredictShard allocates nothing
// (scratch is pooled).
func TestPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	snaps, samples := familyFits(t)
	rows := make([][]float64, len(samples))
	for i, s := range samples {
		rows[i] = s.Row()
	}
	out := make([]float64, len(rows))
	for _, name := range []string{"spline", "residual", "dal"} {
		snap := snaps[name]
		for _, tc := range []struct {
			path string
			call func()
			max  float64
		}{
			{"family PredictBatch", func() { snap.fam.PredictBatch(rows, out) }, 0},
			{"Snapshot.PredictBatch", func() { _ = snap.PredictBatch(rows, out) }, 0},
			{"Snapshot.PredictShard", func() { _, _ = snap.PredictShard(samples[0].X, samples[0].HW) }, 0},
		} {
			tc.call() // grow the pooled scratch to its high-water mark
			if got := testing.AllocsPerRun(100, tc.call); got > tc.max {
				t.Errorf("%s: %s makes %v allocs per call, want at most %v", name, tc.path, got, tc.max)
			}
		}
	}
}

// BenchmarkSnapshotPredictShard times one shard prediction through the
// served snapshot, a batch of one, cycling through held-out rows.
// perfbench's client-side oracle makes this call once per predicted item.
func BenchmarkSnapshotPredictShard(b *testing.B) {
	m, valid := trainSmallModeler(b)
	snap := m.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := valid[i%len(valid)]
		if _, err := snap.PredictShard(s.X, s.HW); err != nil {
			b.Fatal(err)
		}
	}
}
