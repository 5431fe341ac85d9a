package rng

import "math"

// Geom is a precomputed geometric sampler over {1, 2, 3, ...} with a fixed
// mean. The trace generator draws geometric samples for every instruction,
// so this is on the simulator's critical path.
//
// For means up to smallMeanCutoff, Sample counts Bernoulli trials (cheaper
// than a logarithm). Above it, Sample inverts the CDF with one draw u:
// k = int(log(1-u)/log(1-p)) + 1. That k steps up at the thresholds
// u_k = 1 - exp(k/invLog), so construction builds a bucket table from them
// (table.go): a draw whose bucket lies at least the guard band away from
// every threshold is answered with one load, and only the buckets around a
// threshold, and the tail past the point where thresholds fall closer than
// one bucket, run math.Log. A table hit consumes the same single Uint64
// draw as the logarithm and returns the same k, so the table changes no
// output.
type Geom struct {
	mean   float64
	invLog float64 // 1 / log(1-p), for the inverse-transform path
	thresh uint64  // success threshold for the Bernoulli-trial path
	small  bool
	table  *table // the inverse-transform path's bucket table
}

// smallMeanCutoff is the mean below which Bernoulli trials beat a logarithm.
const smallMeanCutoff = 3

// NewGeom builds a sampler with the given mean (means <= 1 always sample 1).
func NewGeom(mean float64) Geom {
	g := Geom{mean: mean}
	if mean <= 1 {
		return g
	}
	p := 1 / mean
	g.small = mean <= smallMeanCutoff
	if g.small {
		g.thresh = uint64(p * float64(1<<63) * 2)
		return g
	}
	g.invLog = 1 / math.Log(1-p)
	invLog := g.invLog
	g.table = buildTable(func(k int) float64 {
		return 1 - math.Exp(float64(k)/invLog)
	}, guardBand)
	return g
}

// Mean returns the configured mean.
func (g *Geom) Mean() float64 { return g.mean }

// Sample draws one geometric variate from src.
func (g *Geom) Sample(src *Source) int {
	if g.mean <= 1 {
		return 1
	}
	if g.small {
		k := 1
		// Success probability p per trial; count trials to first success.
		for src.Uint64() >= g.thresh {
			k++
			if k > 256 {
				break // statistically unreachable; bounds the loop
			}
		}
		return k
	}
	x := src.Uint64()
	if k := g.table.lookup(x); k != 0 {
		return k
	}
	u := float64(x>>11) / (1 << 53)
	k := int(math.Log(1-u)*g.invLog) + 1
	if k < 1 {
		k = 1
	}
	return k
}
