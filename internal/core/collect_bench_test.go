package core

import (
	"testing"

	"hsmodel/internal/trace"
)

// BenchmarkCollect times sample collection at the scale of perfbench's
// build workload: 7 applications x 120 samples over 50k-instruction shards.
// Tracing, shard profiling and simulation are all inside; B/op shows the
// trace and simulator allocations each (application, shard) group makes.
//
//	make bench-collect
func BenchmarkCollect(b *testing.B) {
	apps := trace.SPEC2006()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Collector{ShardLen: 50_000}.Collect(apps, 120, 1)
	}
}
