package core

import (
	"testing"

	"hsmodel/internal/cpu"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/isa"
	"hsmodel/internal/profile"
	"hsmodel/internal/rng"
	"hsmodel/internal/trace"
)

// benchShardLen is the build workload's shard length.
const benchShardLen = 50_000

// BenchmarkCollect times sample collection at the scale of perfbench's
// build workload: 7 applications x 120 samples over 50k-instruction shards.
// Tracing, shard profiling and simulation are all inside; B/op shows the
// trace and simulator allocations each (application, shard) group makes.
// BenchmarkShardTrace, BenchmarkProfileStream and BenchmarkSimulate time
// those three layers alone at the same scale.
//
//	make bench-collect
func BenchmarkCollect(b *testing.B) {
	apps := trace.SPEC2006()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Collector{ShardLen: benchShardLen}.Collect(apps, 120, 1)
	}
}

// benchTraces returns one 50k-instruction trace per SPEC2006 application.
func benchTraces() [][]isa.Inst {
	var out [][]isa.Inst
	for k, app := range trace.SPEC2006() {
		out = append(out, app.ShardTrace(k, benchShardLen))
	}
	return out
}

// reportPerInst adds an ns/inst metric for b.N passes over n instructions.
func reportPerInst(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/inst")
}

// BenchmarkShardTrace times trace generation: each op fills one
// 50k-instruction shard per SPEC2006 application.
func BenchmarkShardTrace(b *testing.B) {
	apps := trace.SPEC2006()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k, app := range apps {
			app.ShardTrace(i+k, benchShardLen)
		}
	}
	reportPerInst(b, len(apps)*benchShardLen)
}

// BenchmarkProfileStream times shard profiling: each op profiles one
// 50k-instruction trace per SPEC2006 application, walked as the Collector
// walks it.
func BenchmarkProfileStream(b *testing.B) {
	traces := benchTraces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, insts := range traces {
			profile.Stream(&isa.SliceStream{Insts: insts}, "bench", k)
		}
	}
	reportPerInst(b, len(traces)*benchShardLen)
}

// BenchmarkSimulate times simulation: each op replays one 50k-instruction
// trace per SPEC2006 application on a uniformly sampled architecture, a
// fresh Simulator each, as the Collector does.
func BenchmarkSimulate(b *testing.B) {
	traces := benchTraces()
	src := rng.New(1)
	hws := make([]hwspace.Config, 16)
	for i := range hws {
		hws[i] = hwspace.FromIndices(hwspace.Sample(src))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, insts := range traces {
			cpu.New(hws[(i+k)%len(hws)]).Run(&isa.SliceStream{Insts: insts})
		}
	}
	reportPerInst(b, len(traces)*benchShardLen)
}
