// Consistent-hash ring: the registry's request router. Each entry owns
// vnodes points on a 64-bit ring; a key walks clockwise from its hash to the
// first point whose entry passes the caller's filter. Placement is
// deterministic in (seed, entry IDs, vnodes): the same membership always
// yields the same ring, and removing one entry remaps only the keys that
// pointed at its vnodes — every other key keeps its assignment, which is the
// property the registry's rebalance-free unregister relies on.
package registry

import "sort"

// ringPoint is one virtual node: a position on the ring owned by an entry.
type ringPoint struct {
	hash uint64
	id   string
}

// hashRing is an immutable snapshot of the ring; the registry rebuilds it on
// every membership change and swaps it under its own lock.
type hashRing struct {
	points []ringPoint
}

// vnodesPerEntry is the number of points each registry entry owns on the ring.
const vnodesPerEntry = 64

// buildRing places vnodes points per id, deterministically in seed.
func buildRing(seed uint64, vnodes int, ids []string) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(ids)*vnodes)}
	var key []byte
	for _, id := range ids {
		for v := 0; v < vnodes; v++ {
			key = key[:0]
			key = append(key, id...)
			key = append(key, '#')
			key = appendUint(key, uint64(v))
			r.points = append(r.points, ringPoint{hash: ringHash(seed, key), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break on id so the order — and
		// therefore routing — stays deterministic across rebuilds.
		return r.points[i].id < r.points[j].id
	})
	return r
}

// route walks clockwise from key's hash to the first point whose entry the
// filter accepts; a nil filter accepts everything. It reports false only when
// no point is acceptable.
func (r *hashRing) route(seed uint64, key string, accept func(id string) bool) (string, bool) {
	n := len(r.points)
	if n == 0 {
		return "", false
	}
	h := ringHash(seed, []byte(key))
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for k := 0; k < n; k++ {
		p := r.points[(start+k)%n]
		if accept == nil || accept(p.id) {
			return p.id, true
		}
	}
	return "", false
}

// ringHash is FNV-1a over key, finalized through a splitmix-style mix of the
// seed so distinct seeds produce statistically independent placements.
func ringHash(seed uint64, key []byte) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime
	}
	z := h + seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// appendUint appends v's decimal digits without the strconv allocation.
func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
