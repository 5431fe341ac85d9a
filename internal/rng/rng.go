// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout hsmodel. Reproducibility matters: every synthetic
// workload, sampled design point, and genetic-search run is derived from an
// explicit seed so that experiments regenerate identical tables.
//
// The generator is SplitMix64 (Steele, Lea, Flood; OOPSLA 2014), which passes
// BigCrush, has a full 2^64 period, and — unlike math/rand's global state —
// is cheap to fork into independent streams keyed by (application, shard).
package rng

import "math"

// Source is a deterministic SplitMix64 random source. The zero value is a
// valid generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Fork derives an independent stream from the source and a key. The parent
// state is not advanced, so forks are stable regardless of interleaving.
func (s *Source) Fork(key uint64) *Source {
	// Mix the key through one SplitMix64 round against the current state.
	z := s.state + 0x9e3779b97f4a7c15*(key+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &Source{state: z ^ (z >> 31)}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Cut returns the draw bound of a weighted choice: for scale >= 0,
// src.Float64()*scale < bound holds exactly when src.Uint64()>>11 <
// Cut(scale, bound), for the same draw. Float64() is m/2^53 for the draw's
// top 53 bits m, and m/2^53*scale does not decrease as m grows (float
// rounding is monotone), so Cut is the smallest m at which the product,
// computed with the same float operations, is not below bound: 2^53 when
// there is none, 0 for a NaN bound or scale, which no product is below.
// Precomputing cuts turns a per-draw int-to-float conversion, multiply and
// float compares into integer compares.
func Cut(scale, bound float64) uint64 {
	lo, hi := uint64(0), uint64(1<<53)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if !(float64(mid)/(1<<53)*scale < bound) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Bernoulli is a precomputed coin with a fixed success probability p: Sample
// returns exactly what Source.Bool(p) returns, consuming the same draw, by
// comparing the draw's top 53 bits with Cut(1, p).
type Bernoulli struct {
	cut uint64
}

// NewBernoulli builds a coin that comes up true with probability p.
func NewBernoulli(p float64) Bernoulli {
	return Bernoulli{cut: Cut(1, p)}
}

// Sample flips the coin once, as src.Bool(p) would.
func (b Bernoulli) Sample(src *Source) bool {
	return src.Uint64()>>11 < b.cut
}

// Normal returns a sample from N(mu, sigma^2) using the Box-Muller transform.
func (s *Source) Normal(mu, sigma float64) float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return mu + sigma*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// LogNormal returns a sample of a log-normal distribution parameterized by
// the mu and sigma of the underlying normal.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Zipf returns a sample in [1, n] following an approximate Zipf distribution
// with exponent theta (0 < theta). Larger theta skews toward small values.
// It uses the standard rejection-free inverse-power approximation, which is
// accurate enough for workload locality modeling.
func (s *Source) Zipf(n int, theta float64) int {
	if n <= 1 {
		return 1
	}
	u := s.Float64()
	// Inverse transform of the continuous bounded Pareto approximation.
	if theta == 1 {
		return 1 + int(math.Pow(float64(n), u))%n
	}
	oneMinus := 1 - theta
	hi := math.Pow(float64(n), oneMinus)
	x := math.Pow(u*(hi-1)+1, 1/oneMinus)
	k := int(x)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Perm fills a permutation of [0, n) using Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices via the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf is a precomputed sampler for Source.Zipf with a fixed n and theta.
// Construction pays the n-dependent math.Pow and the exponent's reciprocal
// once; a draw then makes at most one math.Pow in place of two, with the
// same arithmetic, so Sample returns exactly what Source.Zipf(n, theta)
// would and consumes the same draw.
//
// For theta != 1, k = int((u*(n^(1-theta)-1) + 1)^(1/(1-theta))) steps from
// j-1 to j at u_j = (j^(1-theta) - 1) / (n^(1-theta) - 1), so construction
// builds a bucket table from those thresholds as Geom does (table.go): draws
// in buckets clear of every threshold by the guard band answer with one
// load, the rest run the power. The band widens when theta is so close to 1
// that n^(1-theta) - 1 cancels to a few significant bits.
type Zipf struct {
	n        int
	hiMinus1 float64 // n^(1-theta) - 1
	invExp   float64 // 1 / (1-theta)
	harmonic bool    // theta == 1
	table    *table  // the theta != 1 path's bucket table
}

// NewZipf builds a sampler over [1, n] with exponent theta.
func NewZipf(n int, theta float64) Zipf {
	z := Zipf{n: n, harmonic: theta == 1}
	if n > 1 && !z.harmonic {
		oneMinus := 1 - theta
		z.hiMinus1 = math.Pow(float64(n), oneMinus) - 1
		z.invExp = 1 / oneMinus
		h := z.hiMinus1
		z.table = buildTable(func(i int) float64 {
			return (math.Pow(float64(i+1), oneMinus) - 1) / h
		}, zipfGuard(h, oneMinus))
	}
	return z
}

// zipfGuard returns the guard band for a Zipf table with hiMinus1 h and
// oneMinus = 1-theta. Mapped back to u, a threshold and the power evaluated
// near it are off by a few ulps of 1+|h| divided by |h| (math.Pow's error
// grows with its exponent 1/(1-theta); the 2+|oneMinus| factor covers that
// once mapped back). errU bounds this with 64 times headroom; the guard is
// 2^10 times errU and at least guardBand. A zero or NaN h gives an infinite
// or NaN guard, which fills no bucket.
func zipfGuard(h, oneMinus float64) float64 {
	errU := 0x1p-46 * (1 + math.Abs(h)) * (2 + math.Abs(oneMinus)) / math.Abs(h)
	return math.Max(guardBand, 0x1p10*errU)
}

// Sample draws one variate from src, as src.Zipf(n, theta) would.
func (z *Zipf) Sample(src *Source) int {
	if z.n <= 1 {
		return 1
	}
	x := src.Uint64()
	if z.harmonic {
		u := float64(x>>11) / (1 << 53)
		return 1 + int(math.Pow(float64(z.n), u))%z.n
	}
	if k := z.table.lookup(x); k != 0 {
		return k
	}
	u := float64(x>>11) / (1 << 53)
	k := int(math.Pow(u*z.hiMinus1+1, z.invExp))
	if k < 1 {
		k = 1
	}
	if k > z.n {
		k = z.n
	}
	return k
}
