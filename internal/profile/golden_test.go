package profile

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"hsmodel/internal/isa"
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
			p := Stream(app.ShardStream(shard, shardLen), app.Name, shard)
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

// TestStreamSliceMatchesGenerator checks that Stream gives the same bits
// walking a SliceStream as reading the generator, including a SliceStream
// already partly read.
func TestStreamSliceMatchesGenerator(t *testing.T) {
	const shardLen = 5000
	for _, app := range trace.SPEC2006() {
		insts := app.ShardTrace(2, shardLen)
		want := Stream(app.ShardStream(2, shardLen), app.Name, 2)
		if got := Stream(&isa.SliceStream{Insts: insts}, app.Name, 2); got != want {
			t.Fatalf("%s: slice profile %+v, generator profile %+v", app.Name, got, want)
		}
		ss := &isa.SliceStream{Insts: insts}
		var in isa.Inst
		for k := 0; k < 100; k++ {
			ss.Next(&in)
		}
		got := Stream(ss, app.Name, 2)
		if want := Stream(mkStream(insts[100:]), app.Name, 2); got != want {
			t.Fatalf("%s: part-read slice profile %+v, want %+v", app.Name, got, want)
		}
	}
}
