package profile

import (
	"testing"

	"hsmodel/internal/rng"
)

// TestReuseTableMatchesMap drives a reuseTable and a Go map with the same
// keys and requires every swap to return what the map held. The keys
// include block 0, keys that share a home slot (among them the last slot,
// so probes wrap), strided keys, and enough distinct keys to grow the table
// several times past minReuseSlots.
func TestReuseTableMatchesMap(t *testing.T) {
	var tab reuseTable
	ref := make(map[uint64]int64)
	var idx int64
	check := func(key uint64) {
		t.Helper()
		prev, ok := tab.swap(key, idx)
		want, wantOK := ref[key]
		if ok != wantOK || prev != want {
			t.Fatalf("swap(%d, %d) = (%d, %v), want (%d, %v)", key, idx, prev, ok, want, wantOK)
		}
		ref[key] = idx
		idx++
	}

	check(0)
	last := uint64(minReuseSlots - 1)
	var colliding []uint64
	for k := uint64(1); len(colliding) < 8; k++ {
		if h := tab.home(k); h == tab.home(0) || h == int(last) {
			colliding = append(colliding, k)
		}
	}
	for _, k := range colliding {
		check(k)
	}
	for _, k := range colliding {
		check(k)
	}

	src := rng.New(7)
	const distinct = 16 * minReuseSlots
	for i := 0; i < 4*distinct; i++ {
		var key uint64
		switch src.Intn(4) {
		case 0:
			key = colliding[src.Intn(len(colliding))]
		case 1:
			key = uint64(src.Intn(64)) << 12 // strided, like page-aligned blocks
		default:
			key = uint64(src.Intn(distinct))
		}
		check(key)
	}
	check(0)
	if tab.n != len(ref) {
		t.Errorf("table holds %d keys, map %d", tab.n, len(ref))
	}
	if len(tab.slots) < 2*len(ref) || len(tab.slots) < 8*minReuseSlots {
		t.Errorf("%d slots for %d keys: want load <= 1/2 after several grows", len(tab.slots), len(ref))
	}
}
