package profile

import "math/bits"

// reuseTable maps a block number to the index of the instruction that last
// touched it. It is open-addressed: a power-of-two slot array probed
// linearly from a multiplicative hash of the key, kept at most half full.
// A slot stores idx+1, so a zero slot is empty and block 0 stays a valid
// key. The zero value is an empty table; the first swap allocates it.
type reuseTable struct {
	slots []reuseSlot
	shift uint // 64 - log2(len(slots)): home slots come from the hash's top bits
	n     int  // occupied slots
}

type reuseSlot struct {
	key  uint64
	last int64 // last access index + 1; 0 marks an empty slot
}

// minReuseSlots is the capacity a table starts at.
const minReuseSlots = 1 << 10

// fibHash is 2^64 divided by the golden ratio. Multiplying by it spreads
// strided block numbers over the top bits, which index the table.
const fibHash = 0x9E3779B97F4A7C15

// home returns the slot key's probe starts at.
func (t *reuseTable) home(key uint64) int {
	return int((key * fibHash) >> t.shift)
}

// swap records idx as key's latest access. It returns the previous access
// index and true, or false if key was not in the table — the lookup and the
// store of a map in one probe.
func (t *reuseTable) swap(key uint64, idx int64) (prev int64, ok bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.last == 0 {
			s.key, s.last = key, idx+1
			t.n++
			return 0, false
		}
		if s.key == key {
			prev = s.last - 1
			s.last = idx + 1
			return prev, true
		}
	}
}

// grow doubles the capacity (or allocates the first minReuseSlots) and
// reinserts every occupied slot.
func (t *reuseTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < minReuseSlots {
		size = minReuseSlots
	}
	t.slots = make([]reuseSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.last == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].last != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
