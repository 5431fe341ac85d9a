package rng

import "math"

// An inverse-CDF sampler turns one draw u = (x>>11)/2^53 into an integer k
// through a formula (a logarithm for Geom, a power for Zipf). k only changes
// where u crosses one of the sampler's thresholds, so a table indexed by the
// draw's top bits can answer every bucket of u that holds no threshold with
// one load, and leave the formula to the buckets that do. The same single
// Uint64 draw is consumed either way, so the draw sequence is unchanged.
//
// The thresholds are the points where the formula, evaluated exactly, steps
// from one k to the next. The formula as computed is off by a few ulps, so a
// bucket gets an entry only when a guard band around it holds no threshold
// either; the band is orders of magnitude wider than that error, so in an
// entered bucket every draw lies far from any step and the formula's
// rounding cannot move k. Thresholds are computed directly (one Exp or Pow
// each) rather than by running the formula at every bucket edge, which would
// cost about as many logarithms per table as the table saves on a shard.

const (
	tableBits    = 12
	tableBuckets = 1 << tableBits
	// bucketWidth is the width in u of one bucket; bucket b holds
	// [b, b+1) * bucketWidth.
	bucketWidth = 1.0 / tableBuckets
	// guardBand is the minimum distance in u between a threshold and any
	// bucket that answers from the table.
	guardBand = 1e-9
)

// table maps a draw's bucket (its top tableBits bits) to the sampler's k for
// every u in the bucket, or to 0 where the formula must run.
type table [tableBuckets]uint16

// lookup returns the table's k for draw x, or 0 when the formula must run.
func (t *table) lookup(x uint64) int {
	return int(t[x>>(64-tableBits)])
}

// buildTable builds the table of a sampler whose k is 1 below thresh(1) and
// rises by one at each of thresh(1) < thresh(2) < ..., with guard as the
// guard band. It stops at the first threshold that is NaN, negative, or less
// than one bucket above the one before it: from there on thresholds only
// get denser, so no later bucket could answer from the table anyway, and
// the tail keeps the formula. The last bucket always keeps the formula, and
// so does any k too large for an entry. A guard band that is NaN or not
// narrower than a bucket fills nothing. Each accepted threshold lies at
// least a bucket above the last one, so at most tableBuckets+2 are
// evaluated: degenerate parameters cannot make it loop long.
func buildTable(thresh func(i int) float64, guard float64) *table {
	t := new(table)
	if !(guard >= 0 && guard < bucketWidth) {
		return t // NaN, or so wide that no bucket could clear it
	}
	prev := math.Inf(-1)
	next := 0 // first bucket not yet filled or passed over
	for i := 1; i <= math.MaxUint16 && next < tableBuckets-1; i++ {
		th := thresh(i)
		if !(th >= 0 && th-prev >= bucketWidth) {
			break
		}
		// Fill the buckets b with [b, b+1)*bucketWidth inside
		// (prev+guard, th-guard): their k is i. Bucket indices are
		// computed and clamped in floating point, where th and prev are
		// known not to be NaN, before any conversion to int.
		first := math.Max(math.Floor((prev+guard)*tableBuckets)+1, float64(next))
		last := math.Min(math.Floor((th-guard)*tableBuckets)-1, tableBuckets-2)
		for b := int(first); b <= int(last); b++ {
			t[b] = uint16(i)
		}
		next = max(next, int(last)+1)
		prev = th
	}
	return t
}
