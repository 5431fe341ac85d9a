package profile

import (
	"reflect"
	"runtime"
	"testing"

	"hsmodel/internal/isa"
	"hsmodel/internal/trace"
)

// TestStreamShardsMatchesSerial: the parallel shard profiler must return
// results in deterministic shard order, identical to a serial loop, for any
// worker count (the pool is GOMAXPROCS wide: the host's, then 1, 3 and 16).
// Runs under -race in `make race` to exercise the work-stealing counter.
func TestStreamShardsMatchesSerial(t *testing.T) {
	app := trace.Bzip2()
	const shardLen = 5_000
	shards := ShardRange(9)
	want := make([]ShardProfile, len(shards))
	for k, s := range shards {
		want[k] = Stream(mkStream(app.ShardTrace(s, shardLen)), app.Name, s)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{0, 1, 3, 16} {
		runtime.GOMAXPROCS(procs) // 0 leaves the host's setting in place
		got := StreamShards(app.Name, shards, func(s int) []isa.Inst {
			return app.ShardTrace(s, shardLen)
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: parallel profile order/content diverged from serial", procs)
		}
	}
}

// TestStreamShardsArbitraryIndices: shard lists need not be contiguous; out[k]
// must correspond to shards[k].
func TestStreamShardsArbitraryIndices(t *testing.T) {
	app := trace.Astar()
	const shardLen = 4_000
	shards := []int{7, 2, 11}
	got := StreamShards(app.Name, shards, func(s int) []isa.Inst {
		return app.ShardTrace(s, shardLen)
	})
	for k, s := range shards {
		want := Stream(mkStream(app.ShardTrace(s, shardLen)), app.Name, s)
		if !reflect.DeepEqual(got[k], want) {
			t.Errorf("out[%d] is not the profile of shard %d", k, s)
		}
	}
}

func TestStreamShardsEmpty(t *testing.T) {
	got := StreamShards("none", nil, func(s int) []isa.Inst {
		t.Fatal("trace factory called for empty shard list")
		return nil
	})
	if len(got) != 0 {
		t.Fatalf("got %d profiles for empty shard list", len(got))
	}
}

func TestShardRange(t *testing.T) {
	if got := ShardRange(4); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("ShardRange(4) = %v", got)
	}
	if got := ShardRange(0); len(got) != 0 {
		t.Errorf("ShardRange(0) = %v", got)
	}
}
