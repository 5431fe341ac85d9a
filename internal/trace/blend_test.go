package trace

import (
	"math"
	"testing"
)

func TestAllShardsDeterministicIncludingBlends(t *testing.T) {
	// Transition (blended) shards must be exactly as reproducible as pure
	// ones: the blend decision and alpha come from the per-shard stream.
	for _, app := range SPEC2006() {
		for shard := 0; shard < 12; shard++ {
			a := app.ShardTrace(shard, 3000)
			b := app.ShardTrace(shard, 3000)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s shard %d: instruction %d differs", app.Name, shard, i)
				}
			}
		}
	}
}

func TestBlendPhaseInterpolates(t *testing.T) {
	a := Phase{Mix: [6]float64{1, 0, 0, 0, 0, 0}, MeanBB: 4, WSBlocks: 1000, ReuseDepth: 10}
	b := Phase{Mix: [6]float64{0, 0, 1, 0, 0, 0}, MeanBB: 8, WSBlocks: 3000, ReuseDepth: 30}
	mid := blendPhase(a, b, 0.5)
	if mid.Mix[0] != 0.5 || mid.Mix[2] != 0.5 {
		t.Errorf("mix not interpolated: %v", mid.Mix)
	}
	if mid.MeanBB != 6 || mid.WSBlocks != 2000 || mid.ReuseDepth != 20 {
		t.Errorf("scalars not interpolated: bb=%v ws=%v rd=%v",
			mid.MeanBB, mid.WSBlocks, mid.ReuseDepth)
	}
	// Alpha 0 is the identity on blended fields.
	same := blendPhase(a, b, 0)
	if math.Float64bits(same.MeanBB) != math.Float64bits(a.MeanBB) || same.Mix != a.Mix {
		t.Error("alpha 0 should reproduce phase a")
	}
}

func TestDeriveHiddenKnobs(t *testing.T) {
	p := Phase{
		Mix:       [6]float64{0.4, 0.1, 0.2, 0.1, 0.15, 0.05},
		MeanBB:    8,
		TakenBias: 0.9,
	}
	deriveHiddenKnobs(&p)
	if p.Predictability <= 0.8 || p.Predictability > 0.99 {
		t.Errorf("derived predictability %v out of range", p.Predictability)
	}
	if p.HotTheta != 1.35 {
		t.Errorf("derived HotTheta %v", p.HotTheta)
	}
	if p.LoopBackProb <= 0.25 || p.LoopBackProb >= 1 {
		t.Errorf("derived LoopBackProb %v", p.LoopBackProb)
	}
	// Producer weights follow the mix.
	if math.Float64bits(p.DepProducer[0]) != math.Float64bits(p.Mix[0]) || math.Float64bits(p.DepProducer[4]) != math.Float64bits(p.Mix[4]) {
		t.Errorf("derived producers %v do not track mix %v", p.DepProducer, p.Mix)
	}
	// Explicit values are honored.
	q := Phase{Mix: [6]float64{1, 0, 0, 0, 0, 0}, Predictability: 0.5, TakenBias: 0.5, MeanBB: 4}
	deriveHiddenKnobs(&q)
	if q.Predictability != 0.5 {
		t.Error("explicit predictability overridden")
	}
	// Biased loops predict better than balanced branches.
	loopy := derivePredictability(Phase{TakenBias: 0.95, MeanBB: 10})
	branchy := derivePredictability(Phase{TakenBias: 0.5, MeanBB: 4})
	if loopy <= branchy {
		t.Errorf("loopy code predictability %v should exceed branchy %v", loopy, branchy)
	}
}
