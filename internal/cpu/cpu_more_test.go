package cpu

import (
	"testing"

	"hsmodel/internal/hwspace"
	"hsmodel/internal/isa"
	"hsmodel/internal/trace"
)

func TestL2LatencyParameterMatters(t *testing.T) {
	// A workload whose working set misses L1 but fits in L2 must slow down
	// as the Table 2 L2-latency parameter (y8) grows.
	app := trace.Bzip2() // ~256 KB working set vs 16 KB L1
	run := func(lat int) float64 {
		cfg := cfgWith(func(c *hwspace.Config) {
			c.DCacheKB = 16
			c.L2KB = 4096
			c.L2Lat = lat
		})
		return New(cfg).Run(shardStream(app, 0, 50_000)).CPI()
	}
	fast, slow := run(6), run(14)
	if slow <= fast {
		t.Errorf("L2 latency 14 CPI %v should exceed latency 6 CPI %v", slow, fast)
	}
}

func TestICacheSizeMattersForBigCode(t *testing.T) {
	// A code footprint larger than a small I-cache: front-end misses make
	// the small configuration slower.
	insts := make([]isa.Inst, 60_000)
	for i := range insts {
		insts[i] = isa.Inst{Class: isa.IntALU}
		// Walk a 64 KB code region sequentially (1024 blocks of 64B).
		insts[i].PC = uint64(i%16384) * 4
	}
	run := func(ikb int) float64 {
		cfg := cfgWith(func(c *hwspace.Config) { c.ICacheKB = ikb })
		return New(cfg).Run(&isa.SliceStream{Insts: insts}).CPI()
	}
	small, big := run(16), run(128)
	if big >= small {
		t.Errorf("128KB I$ CPI %v should beat 16KB I$ CPI %v on 64KB code", big, small)
	}
}

func TestCachePortContention(t *testing.T) {
	// Independent loads hitting in cache: one port bounds memory throughput.
	insts := make([]isa.Inst, 40_000)
	for i := range insts {
		insts[i] = isa.Inst{Class: isa.Load, Addr: uint64(i%64) * 8}
		insts[i].PC = uint64(i%16) * 4
	}
	run := func(ports int) float64 {
		cfg := cfgWith(func(c *hwspace.Config) { c.Width = 4; c.Ports = ports })
		return New(cfg).Run(&isa.SliceStream{Insts: insts}).IPC()
	}
	one, four := run(1), run(4)
	if one > 1.05 {
		t.Errorf("1 port IPC %v, want <= ~1", one)
	}
	if four < 2*one {
		t.Errorf("4 ports IPC %v, want >= 2x of %v", four, one)
	}
}

func TestAllWorkloadsRunOnExtremeConfigs(t *testing.T) {
	// The Table 2 extremes must produce finite, ordered results for every
	// application ("include extreme designs so that models infer interior
	// points more accurately").
	counts := hwspace.LevelCounts()
	var hi hwspace.Indices
	for p := range hi {
		hi[p] = counts[p] - 1
	}
	small := New(hwspace.FromIndices(hwspace.Indices{}))
	big := New(hwspace.FromIndices(hi))
	for _, app := range trace.SPEC2006() {
		cs := small.Run(shardStream(app, 1, 20_000)).CPI()
		cb := big.Run(shardStream(app, 1, 20_000)).CPI()
		if cs <= 0 || cb <= 0 {
			t.Fatalf("%s: non-positive CPI (%v, %v)", app.Name, cs, cb)
		}
		if cb >= cs {
			t.Errorf("%s: maximal config CPI %v not below minimal config CPI %v",
				app.Name, cb, cs)
		}
	}
}
