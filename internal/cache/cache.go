// Package cache implements the set-associative cache simulator underlying
// both ground-truth substrates: the two-level hierarchy of the general study
// (Table 2: L1I/L1D/L2 with configurable size, associativity, and latency)
// and the reconfigurable single-level cache of the SpMV case study (Table 5:
// line size, capacity, associativity, and LRU/NMRU/Random replacement).
package cache

import (
	"fmt"
	"math/bits"

	"hsmodel/internal/rng"
)

// Replacement selects a victim policy (Table 5 y4/y7: LRU, NMRU, RND).
type Replacement uint8

// Replacement policies.
const (
	LRU Replacement = iota
	NMRU
	Random
)

func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case NMRU:
		return "NMRU"
	case Random:
		return "RND"
	}
	return "Unknown"
}

// ParseReplacement converts a policy name to a Replacement.
func ParseReplacement(s string) (Replacement, error) {
	switch s {
	case "LRU":
		return LRU, nil
	case "NMRU":
		return NMRU, nil
	case "RND", "Random":
		return Random, nil
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q", s)
}

// Config describes one cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	Policy    Replacement
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	s := c.SizeBytes / (c.LineBytes * c.Ways)
	if s < 1 {
		s = 1
	}
	return s
}

// Validate checks the configuration for consistency (power-of-two geometry).
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes < c.LineBytes*c.Ways {
		return fmt.Errorf("cache: size %dB smaller than one set (%dB line x %d ways)",
			c.SizeBytes, c.LineBytes, c.Ways)
	}
	for _, v := range []int{c.SizeBytes, c.LineBytes, c.Ways} {
		if bits.OnesCount(uint(v)) != 1 {
			return fmt.Errorf("cache: geometry value %d not a power of two", v)
		}
	}
	return nil
}

// Stats counts cache events. Misses include cold misses; writebacks count
// dirty evictions (used by the energy model).
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses per access, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true LRU/NMRU/Random replacement.
// It models tags only (no data), which is sufficient for timing and energy.
type Cache struct {
	cfg       Config
	lineShift uint
	tagShift  uint
	setMask   uint64
	ways      []way // sets*Ways, set-major

	clock uint64
	rnd   rng.Source // NMRU/Random victim choice, seeded from the geometry
	stats Stats
}

// way is one cache line's tag state. stamp packs the last-touch clock with
// the dirty bit (clock<<1 | dirty), keeping a way at 16 bytes. The clock
// advances before every touch, so stamp 0 marks an invalid way; and no two
// valid ways share a clock, so comparing stamps orders ways by recency.
type way struct {
	tag   uint64
	stamp uint64
}

const dirtyBit = 1

// New builds a cache from cfg. It panics on invalid geometry (configurations
// come from the enumerated design spaces, so invalid geometry is a
// programming error, not an input error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		ways:      make([]way, sets*cfg.Ways),
	}
	c.seedVictims()
	return c
}

// seedVictims restarts the victim source at the seed the geometry fixes, so
// a fresh or reset cache makes the same NMRU/Random choices.
func (c *Cache) seedVictims() {
	c.rnd = *rng.New(uint64(c.cfg.SizeBytes)*31 + uint64(c.cfg.Ways))
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics and reseeds the victim source, so a
// reset cache replays its first run exactly. Every way write advances the
// clock first, so a clock of 0 means no way has been written since New or
// the last Reset, and the ways need no second clearing.
func (c *Cache) Reset() {
	if c.clock != 0 {
		clear(c.ways)
	}
	c.clock = 0
	c.stats = Stats{}
	c.seedVictims()
}

// Access looks up addr, filling on miss, and reports whether it hit.
// write marks the line dirty (write-allocate, write-back).
func (c *Cache) Access(addr uint64, write bool) bool {
	c.clock++
	c.stats.Accesses++
	set, tag, hit := c.lookup(addr)
	if hit >= 0 {
		c.touch(&set[hit], write)
		return true
	}
	c.stats.Misses++
	c.fill(set, tag, write)
	return false
}

// Fill inserts the line containing addr without recording an access or a
// miss — the insertion path used by hardware prefetchers. A resident line is
// refreshed as most recently used.
func (c *Cache) Fill(addr uint64) {
	c.clock++
	set, tag, hit := c.lookup(addr)
	if hit >= 0 {
		c.touch(&set[hit], false)
		return
	}
	c.fill(set, tag, false)
}

// Probe reports whether addr is resident without changing any state.
func (c *Cache) Probe(addr uint64) bool {
	_, _, hit := c.lookup(addr)
	return hit >= 0
}

// lookup returns the set addr maps to, addr's tag, and the index of the way
// holding it within the set (-1 when it is not resident).
func (c *Cache) lookup(addr uint64) ([]way, uint64, int) {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.cfg.Ways
	set := c.ways[base : base+c.cfg.Ways]
	tag := line >> c.tagShift
	for i := range set {
		if set[i].stamp != 0 && set[i].tag == tag {
			return set, tag, i
		}
	}
	return set, tag, -1
}

// fill installs tag in the set's victim way at the current clock, counting a
// writeback when the evicted line is dirty (an invalid way never is).
func (c *Cache) fill(set []way, tag uint64, write bool) {
	v := &set[c.victim(set)]
	if v.stamp&dirtyBit != 0 {
		c.stats.Writebacks++
	}
	*v = way{tag: tag}
	c.touch(v, write)
}

// touch stamps w with the current clock, keeping its dirty bit and setting
// it on a write.
func (c *Cache) touch(w *way, write bool) {
	w.stamp = c.clock<<1 | w.stamp&dirtyBit
	if write {
		w.stamp |= dirtyBit
	}
}

// victim selects the way index within set to replace, preferring invalid
// ways.
func (c *Cache) victim(set []way) int {
	for i := range set {
		if set[i].stamp == 0 {
			return i
		}
	}
	switch c.cfg.Policy {
	case LRU:
		best := 0
		for i := 1; i < len(set); i++ {
			if set[i].stamp < set[best].stamp {
				best = i
			}
		}
		return best
	case NMRU:
		// Evict a random way that is not the most recently used.
		if len(set) == 1 {
			return 0
		}
		mru := 0
		for i := 1; i < len(set); i++ {
			if set[i].stamp > set[mru].stamp {
				mru = i
			}
		}
		v := c.rnd.Intn(len(set) - 1)
		if v >= mru {
			v++
		}
		return v
	default: // Random
		return c.rnd.Intn(len(set))
	}
}
