package cache

import (
	"testing"
	"testing/quick"

	"hsmodel/internal/rng"
)

func mk(t *testing.T, size, line, ways int, pol Replacement) *Cache {
	t.Helper()
	return New(Config{SizeBytes: size, LineBytes: line, Ways: ways, Policy: pol})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 1},
		{SizeBytes: 1024, LineBytes: 0, Ways: 1},
		{SizeBytes: 1024, LineBytes: 48, Ways: 1}, // not power of two
		{SizeBytes: 1000, LineBytes: 64, Ways: 1}, // not power of two
		{SizeBytes: 64, LineBytes: 64, Ways: 2},   // smaller than one set
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	good := Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	if good.Sets() != 64 {
		t.Errorf("Sets = %d, want 64", good.Sets())
	}
}

func TestParseReplacement(t *testing.T) {
	for _, c := range []struct {
		s    string
		want Replacement
	}{{"LRU", LRU}, {"NMRU", NMRU}, {"RND", Random}, {"Random", Random}} {
		got, err := ParseReplacement(c.s)
		if err != nil || got != c.want {
			t.Errorf("ParseReplacement(%q) = %v, %v", c.s, got, err)
		}
	}
	if _, err := ParseReplacement("FIFO"); err == nil {
		t.Error("unknown policy should error")
	}
	if LRU.String() != "LRU" || NMRU.String() != "NMRU" || Random.String() != "RND" {
		t.Error("policy names wrong")
	}
}

func TestHitAfterFill(t *testing.T) {
	c := mk(t, 1024, 64, 2, LRU)
	if c.Access(0, false) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0, false) {
		t.Fatal("second access should hit")
	}
	if !c.Access(32, false) {
		t.Fatal("same-line access should hit")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 2-way, single set via size = 2 lines.
	c := mk(t, 128, 64, 2, LRU)
	c.Access(0*64, false) // A
	c.Access(1*64, false) // B
	c.Access(0*64, false) // touch A: B is now LRU
	c.Access(2*64, false) // C evicts B
	if !c.Probe(0 * 64) {
		t.Error("A should remain resident")
	}
	if c.Probe(1 * 64) {
		t.Error("B should have been evicted (LRU)")
	}
	if !c.Probe(2 * 64) {
		t.Error("C should be resident")
	}
}

func TestNMRUNeverEvictsMRU(t *testing.T) {
	c := mk(t, 256, 64, 4, NMRU)
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	// Line 3 is MRU; a long conflict stream must never evict the MRU at the
	// moment of each eviction. We verify the weaker, deterministic
	// property: immediately after a miss fills, a re-access of the victim's
	// set MRU (the just-filled line) hits.
	for i := 4; i < 50; i++ {
		c.Access(uint64(i)*64, false)
		if !c.Probe(uint64(i) * 64) {
			t.Fatalf("just-filled line %d not resident", i)
		}
	}
}

func TestRandomPolicyStaysWithinSet(t *testing.T) {
	c := mk(t, 256, 64, 2, Random) // 2 sets
	// Fill set 0 (even lines) and set 1 (odd lines).
	for i := 0; i < 8; i++ {
		c.Access(uint64(i)*64, false)
	}
	// Set 1 lines must be untouched by conflicts in set 0.
	c.Access(16*64, false) // maps to set 0
	if !c.Probe(7*64) && !c.Probe(5*64) {
		// At least one of the two most recent odd lines must be resident:
		// set 1 holds 2 ways and saw lines 1,3,5,7 -> last two are 5,7.
		t.Error("conflict in set 0 disturbed set 1")
	}
}

func TestWritebackCounting(t *testing.T) {
	c := mk(t, 128, 64, 1, LRU) // 2 sets, direct mapped
	c.Access(0, true)           // dirty fill, set 0
	c.Access(128, false)        // evicts dirty line -> writeback
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
	c.Access(256, false) // evicts clean line -> no writeback
	if c.Stats().Writebacks != 1 {
		t.Fatal("clean eviction must not count as writeback")
	}
	// A line stays dirty through later read hits and prefetch refreshes.
	c.Access(64, true)   // dirty fill, set 1
	c.Access(64, false)  // read hit
	c.Fill(64)           // prefetch refresh
	c.Access(192, false) // evicts it -> writeback
	if c.Stats().Writebacks != 2 {
		t.Fatalf("writebacks = %d after evicting a dirty line read since, want 2", c.Stats().Writebacks)
	}
}

func TestFillDoesNotCountStats(t *testing.T) {
	c := mk(t, 1024, 64, 2, LRU)
	c.Fill(0)
	if st := c.Stats(); st.Accesses != 0 || st.Misses != 0 {
		t.Fatalf("Fill changed stats: %+v", st)
	}
	if !c.Access(0, false) {
		t.Fatal("prefetched line should hit")
	}
}

func TestReset(t *testing.T) {
	c := mk(t, 1024, 64, 2, LRU)
	c.Access(0, true)
	c.Reset()
	if st := c.Stats(); st.Accesses != 0 {
		t.Fatal("Reset must clear stats")
	}
	if c.Probe(0) {
		t.Fatal("Reset must clear contents")
	}
}

// TestResetReplaysFirstRun: after Reset, a cache replays its first run
// exactly — the same miss and writeback counts — whatever its replacement
// policy. NMRU and Random draw victims from the cache's source, so Reset must
// restart that source too.
func TestResetReplaysFirstRun(t *testing.T) {
	src := rng.New(11)
	addrs := make([]uint64, 20_000)
	for i := range addrs {
		addrs[i] = src.Uint64() % (64 << 10)
	}
	run := func(c *Cache) Stats {
		for i, a := range addrs {
			c.Access(a, i%5 == 0)
		}
		return c.Stats()
	}
	for _, pol := range []Replacement{LRU, NMRU, Random} {
		c := mk(t, 4<<10, 64, 4, pol)
		first := run(c)
		c.Reset()
		if again := run(c); again != first {
			t.Errorf("%v: first run %+v, after Reset %+v", pol, first, again)
		}
		if fresh := run(mk(t, 4<<10, 64, 4, pol)); fresh != first {
			t.Errorf("%v: first run %+v, fresh cache %+v", pol, first, fresh)
		}
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty stats miss rate should be 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("miss rate %v", s.MissRate())
	}
}

// TestLRUWorkingSetProperty: a working set of at most `ways` lines per set
// always hits after the first pass under LRU.
func TestLRUWorkingSetProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		ways := 1 << src.Intn(3) // 1, 2, 4
		sets := 4
		c := New(Config{SizeBytes: sets * ways * 64, LineBytes: 64, Ways: ways, Policy: LRU})
		// Choose `ways` distinct lines mapping to set 0.
		lines := make([]uint64, ways)
		for i := range lines {
			lines[i] = uint64(i*sets) * 64 // same set, distinct tags
		}
		// First pass: misses. Subsequent passes in any order: all hits.
		for _, a := range lines {
			c.Access(a, false)
		}
		for pass := 0; pass < 3; pass++ {
			src.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
			for _, a := range lines {
				if !c.Access(a, false) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := Hierarchy{
		L1I:        mk(t, 1024, 64, 2, LRU),
		L1D:        mk(t, 1024, 64, 2, LRU),
		L2:         mk(t, 8192, 64, 4, LRU),
		L1Latency:  1,
		L2Latency:  10,
		MemLatency: 100,
	}
	lat, miss := h.DataAccess(0, false)
	if lat != 111 || !miss {
		t.Fatalf("cold access lat=%d miss=%v, want 111/true", lat, miss)
	}
	lat, miss = h.DataAccess(0, false)
	if lat != 1 || miss {
		t.Fatalf("L1 hit lat=%d miss=%v", lat, miss)
	}
	// Evict from tiny L1 but not L2: next access is an L2 hit.
	for i := 1; i <= 16; i++ {
		h.DataAccess(uint64(i)*64, false)
	}
	lat, miss = h.DataAccess(0, false)
	if lat != 11 || !miss {
		t.Fatalf("L2 hit lat=%d miss=%v, want 11/true", lat, miss)
	}
}

func TestHierarchyInstAccess(t *testing.T) {
	h := Hierarchy{
		L1I:        mk(t, 1024, 64, 2, LRU),
		L1D:        mk(t, 1024, 64, 2, LRU),
		L2:         mk(t, 8192, 64, 4, LRU),
		L1Latency:  1,
		L2Latency:  10,
		MemLatency: 100,
	}
	if pen := h.InstAccess(0); pen != 110 {
		t.Fatalf("cold fetch penalty %d", pen)
	}
	if pen := h.InstAccess(0); pen != 0 {
		t.Fatalf("hit fetch penalty %d", pen)
	}
}

func TestPrefetcherCutsStreamingMisses(t *testing.T) {
	run := func(degree int) uint64 {
		h := Hierarchy{
			L1I:            mk(t, 1024, 64, 2, LRU),
			L1D:            mk(t, 4096, 64, 2, LRU),
			L2:             mk(t, 65536, 64, 4, LRU),
			L1Latency:      1,
			L2Latency:      10,
			MemLatency:     100,
			PrefetchDegree: degree,
		}
		h.Reset()
		for i := 0; i < 4096; i++ {
			h.DataAccess(uint64(i)*8, false) // sequential word stream
		}
		return h.L1D.Stats().Misses
	}
	without := run(0)
	with := run(2)
	if with*2 >= without {
		t.Errorf("prefetching should cut streaming misses at least 2x: %d -> %d", without, with)
	}
}
