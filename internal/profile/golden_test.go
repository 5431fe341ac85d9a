package profile

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"hsmodel/internal/trace"
)

// TestStreamGolden pins Stream's output bit for bit over every SPEC2006
// application, including SumReuse256 (Figure 3), which no collector golden
// sees, so changes to the reuse tables that should be invisible stay
// invisible.
func TestStreamGolden(t *testing.T) {
	const (
		shardLen = 20_000
		want     = "4d469f416f481940954f69afddc4941cb36f690ddeb19ecc07da174146ceb30a"
	)
	h := sha256.New()
	var b [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, app := range trace.SPEC2006() {
		for shard := 0; shard < 3; shard++ {
			p := Stream(mkStream(app.ShardTrace(shard, shardLen)), app.Name, shard)
			fmt.Fprintf(h, "%s|%d|%d|", p.App, p.Shard, p.Insts)
			for _, x := range p.X {
				put(x)
			}
			put(p.SumReuse256)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("profiles hash %s, want %s", got, want)
	}
}
