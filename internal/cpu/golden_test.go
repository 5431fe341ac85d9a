package cpu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"hsmodel/internal/cache"
	"hsmodel/internal/hwspace"
	"hsmodel/internal/isa"
	"hsmodel/internal/rng"
	"hsmodel/internal/trace"
)

// goldenConfigs returns the all-minimum and all-maximum Table 2 corners and
// three uniformly sampled interior configurations.
func goldenConfigs() []hwspace.Config {
	counts := hwspace.LevelCounts()
	var hi hwspace.Indices
	for p := range hi {
		hi[p] = counts[p] - 1
	}
	cfgs := []hwspace.Config{hwspace.FromIndices(hwspace.Indices{}), hwspace.FromIndices(hi)}
	src := rng.New(11)
	for k := 0; k < 3; k++ {
		cfgs = append(cfgs, hwspace.FromIndices(hwspace.Sample(src)))
	}
	return cfgs
}

// hashResult writes the bits of every Result field to h.
func hashResult(h hash.Hash, r Result) {
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(r.Insts))
	put(math.Float64bits(r.Cycles))
	put(r.Branches)
	put(r.Mispredicts)
	for _, st := range []cache.Stats{r.L1D, r.L1I, r.L2} {
		put(st.Accesses)
		put(st.Misses)
		put(st.Writebacks)
	}
}

// TestSimulatorGolden pins Run's results bit for bit over every SPEC2006
// application on the Table 2 corners and three sampled configurations, plus
// a hand trace whose dependence distances run before the first instruction,
// past the window, and negative, so changes to the simulator loop that
// should be invisible stay invisible.
func TestSimulatorGolden(t *testing.T) {
	const (
		shardLen = 20_000
		want     = "51db8948bc1d03f361597d8af3edbd59f5f4e0de0424f76b2fdb0ea0d9f70a90"
	)
	cfgs := goldenConfigs()
	if cfgs[1].ROB != 224 || cfgs[1].LSQ != 36 {
		t.Fatalf("all-maximum config has ROB %d LSQ %d, want 224 and 36", cfgs[1].ROB, cfgs[1].LSQ)
	}
	h := sha256.New()
	for _, app := range trace.SPEC2006() {
		for shard := 0; shard < 3; shard++ {
			insts := app.ShardTrace(shard, shardLen)
			for _, cfg := range cfgs {
				hashResult(h, New(cfg).Run(&isa.SliceStream{Insts: insts}))
			}
		}
	}
	odd := make([]isa.Inst, 4096)
	deps := []int32{0, 1, 3, -1, 5000, 300, 600, math.MaxInt32, math.MinInt32}
	for i := range odd {
		odd[i] = isa.Inst{
			Class: isa.Class(i % int(isa.NumClasses)),
			PC:    uint64(i%300) * 4,
			Addr:  uint64(i*72) % (1 << 20),
			BrID:  uint32(i % 97),
			Taken: i%3 == 0,
			Dep1:  deps[i%len(deps)],
			Dep2:  deps[(i/len(deps))%len(deps)],
		}
	}
	for _, cfg := range cfgs {
		hashResult(h, New(cfg).Run(&isa.SliceStream{Insts: odd}))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("simulation hash %s, want %s", got, want)
	}
}
