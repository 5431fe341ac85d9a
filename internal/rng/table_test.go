package rng

import (
	"math"
	"testing"
)

// The samplers' bucket tables must be invisible: every draw returns what the
// formula returns and leaves the Source where the formula leaves it. These
// tests compare against reference copies of the formulas (geomRef, and
// Source.Zipf for Zipf), fed chosen draws through sourceFor.

// sourceFor returns a Source whose next Uint64 is x, by inverting
// SplitMix64's output mix.
func sourceFor(x uint64) *Source {
	unshift := func(y uint64, s uint) uint64 {
		z := y
		for i := uint(0); i < 64; i += s {
			z = y ^ z>>s
		}
		return z
	}
	inverse := func(c uint64) uint64 { // c odd: Newton's iteration mod 2^64
		v := c
		for i := 0; i < 5; i++ {
			v *= 2 - c*v
		}
		return v
	}
	z := unshift(x, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	z = unshift(z, 30)
	return &Source{state: z - 0x9e3779b97f4a7c15}
}

// geomRef is the geometric sampler without a table: NewGeom(mean).Sample
// must match it draw for draw and state for state.
func geomRef(mean float64, src *Source) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	if mean <= smallMeanCutoff {
		thresh := uint64(p * float64(1<<63) * 2)
		k := 1
		for src.Uint64() >= thresh {
			k++
			if k > 256 {
				break
			}
		}
		return k
	}
	invLog := 1 / math.Log(1-p)
	u := src.Float64()
	k := int(math.Log(1-u)*invLog) + 1
	if k < 1 {
		k = 1
	}
	return k
}

func TestSourceFor(t *testing.T) {
	s := New(99)
	for i := 0; i < 1000; i++ {
		x := s.Uint64()
		if got := sourceFor(x).Uint64(); got != x {
			t.Fatalf("sourceFor(%#x) draws %#x", x, got)
		}
	}
}

// checkDraw runs sample and ref on sources primed with draw x and fails on
// any difference in the result or in the source state afterwards.
// It is called some 25 million times, so it skips t.Helper's stack walk.
func checkDraw(t *testing.T, name string, x uint64, sample, ref func(*Source) int) {
	a := *sourceFor(x)
	b := a
	got, want := sample(&a), ref(&b)
	if got != want || a.state != b.state {
		t.Fatalf("%s draw %#x: table %d, formula %d (states equal: %v)", name, x, got, want, a.state == b.state)
	}
}

// checkTable tests, in every bucket, the bucket's first and last draw (the
// draws nearest the thresholds on either side) and one random interior draw.
func checkTable(t *testing.T, name string, s *Source, sample, ref func(*Source) int) {
	for b := uint64(0); b < tableBuckets; b++ {
		lo := b << (64 - tableBits)
		for _, x := range []uint64{lo, lo | math.MaxUint64>>tableBits, lo | s.Uint64()>>tableBits} {
			checkDraw(t, name, x, sample, ref)
		}
	}
}

// TestSamplerTablesMatchFormula is the differential proof that the tables
// change nothing: 2,000 random means in (3, 1000] and Zipf samplers over
// random n up to 2^17 at the trace generator's exponents, every bucket.
func TestSamplerTablesMatchFormula(t *testing.T) {
	s := New(27)
	for i := 0; i < 2000; i++ {
		mean := 3 + 997*(1-s.Float64()) // (3, 1000]
		g := NewGeom(mean)
		checkTable(t, "Geom", s, g.Sample, func(src *Source) int { return geomRef(mean, src) })
	}
	for i := 0; i < 200; i++ {
		n := 2 + s.Intn(1<<17-1) // [2, 2^17]
		if i < 8 {
			n = 2 + i // the smallest n: every bucket but the last has an entry
		}
		for _, theta := range []float64{0.8, 1.2, 1.35} {
			z := NewZipf(n, theta)
			checkTable(t, "Zipf", s, z.Sample, func(src *Source) int { return src.Zipf(n, theta) })
		}
	}
}

// tableEntries counts the buckets a table answers without the formula.
func tableEntries(tb *table) int {
	n := 0
	for _, k := range tb {
		if k != 0 {
			n++
		}
	}
	return n
}

// TestSamplerTableCoverage pins that the tables answer most draws at the
// SPEC2006 stand-ins' parameters, so a table that silently fell back to the
// formula everywhere would fail here rather than only in a benchmark.
func TestSamplerTableCoverage(t *testing.T) {
	for _, c := range []struct {
		name string
		tb   *table
		min  int
	}{
		{"Geom(6)", NewGeom(6).table, 4000},
		{"Geom(150)", NewGeom(150).table, 3400},
		{"Zipf(8192,1.35)", NewZipf(8192, 1.35).table, 3350},
		{"Zipf(340,1.2)", NewZipf(340, 1.2).table, 3700},
	} {
		if got := tableEntries(c.tb); got < c.min {
			t.Errorf("%s: %d of %d buckets answer from the table, want >= %d", c.name, got, tableBuckets, c.min)
		}
	}
}

// TestSamplerTablesDegenerate covers parameters whose thresholds are NaN,
// all equal, or too dense to table: construction must finish with a bounded
// allocation, and every draw must still match the formula.
func TestSamplerTablesDegenerate(t *testing.T) {
	s := New(5)
	geoms := []float64{math.NaN(), math.Inf(1), 1e300, 1e15, 3 + 1e-12, 1e6}
	for _, mean := range geoms {
		if a := testing.AllocsPerRun(3, func() { NewGeom(mean) }); a > 1 {
			t.Errorf("NewGeom(%v): %v allocations, want at most the table", mean, a)
		}
		g := NewGeom(mean)
		checkTable(t, "Geom", s, g.Sample, func(src *Source) int { return geomRef(mean, src) })
	}
	for _, mean := range []float64{math.NaN(), math.Inf(1), 1e300} {
		if got := tableEntries(NewGeom(mean).table); got != 0 {
			t.Errorf("NewGeom(%v): %d table entries, want none", mean, got)
		}
	}
	zipfs := []struct {
		n     int
		theta float64
	}{
		{math.MaxInt64, 0.8}, {math.MaxInt64, 1.35}, {1 << 62, 1.2},
		{1 << 17, 1 + 1e-12}, {1 << 17, 1 - 1e-15}, {1 << 10, math.NaN()},
		{1 << 10, math.Inf(1)}, {1 << 10, math.Inf(-1)}, {1 << 10, 0},
		{1 << 10, -3}, {1 << 10, 40},
	}
	for _, c := range zipfs {
		if a := testing.AllocsPerRun(3, func() { NewZipf(c.n, c.theta) }); a > 1 {
			t.Errorf("NewZipf(%d, %v): %v allocations, want at most the table", c.n, c.theta, a)
		}
		z := NewZipf(c.n, c.theta)
		checkTable(t, "Zipf", s, z.Sample, func(src *Source) int { return src.Zipf(c.n, c.theta) })
	}
}

// TestBuildTableBounded feeds buildTable threshold sequences no sampler
// produces, counting evaluations: it must stop after at most
// tableBuckets+2 whatever the sequence, and enter only k values that lie
// between two accepted thresholds.
func TestBuildTableBounded(t *testing.T) {
	for _, c := range []struct {
		name   string
		thresh func(i int) float64
	}{
		{"one bucket apart", func(i int) float64 { return float64(i-1) * bucketWidth }},
		{"constant", func(int) float64 { return 0.5 }},
		{"negative", func(i int) float64 { return -float64(i) }},
		{"NaN", func(int) float64 { return math.NaN() }},
		{"+Inf", func(int) float64 { return math.Inf(1) }},
		{"beyond 1", func(i int) float64 { return float64(i) }},
	} {
		calls := 0
		tb := buildTable(func(i int) float64 { calls++; return c.thresh(i) }, guardBand)
		if calls > tableBuckets+2 {
			t.Errorf("%s: %d threshold evaluations", c.name, calls)
		}
		if tb[tableBuckets-1] != 0 {
			t.Errorf("%s: the last bucket has an entry", c.name)
		}
	}
	for _, guard := range []float64{math.NaN(), math.Inf(1), bucketWidth, 1e300} {
		if got := tableEntries(buildTable(func(i int) float64 { return float64(i) / 8 }, guard)); got != 0 {
			t.Errorf("guard %v: %d entries, want none", guard, got)
		}
	}
}

// TestCutMatchesFloat checks the integer comparison against the float one
// it replaces, at the draws on either side of each cut and at random draws,
// for the coin (scale 1, as Bernoulli uses it) and for weighted choices.
func TestCutMatchesFloat(t *testing.T) {
	s := New(6)
	odd := []float64{0, -1, math.NaN(), math.Inf(-1), math.Inf(1), 1, 1.5,
		math.SmallestNonzeroFloat64, 0x1p-53, 0x1p-54, 3 * 0x1p-53, 0.5,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(1, 0),
		math.MaxFloat64}
	type pair struct{ scale, bound float64 }
	var cases []pair
	for _, p := range odd {
		cases = append(cases, pair{1, p})
		if !(p < 0) { // Cut's contract: scale >= 0 (or NaN)
			cases = append(cases, pair{p, 0.5}, pair{p, p})
		}
	}
	for i := 0; i < 500; i++ {
		scale := 10 * s.Float64()
		cases = append(cases, pair{1, s.Float64()}, pair{scale, scale * s.Float64()})
	}
	for _, c := range cases {
		cut := Cut(c.scale, c.bound)
		xs := []uint64{0, math.MaxUint64}
		for _, m := range []uint64{cut - 1, cut, cut + 1} {
			if m < 1<<53 {
				xs = append(xs, m<<11, m<<11|1<<11-1)
			}
		}
		for i := 0; i < 20; i++ {
			xs = append(xs, s.Uint64())
		}
		for _, x := range xs {
			got, want := sourceFor(x).Uint64()>>11 < cut, sourceFor(x).Float64()*c.scale < c.bound
			if got != want {
				t.Fatalf("scale %v bound %v draw %#x: cut %v, float %v", c.scale, c.bound, x, got, want)
			}
		}
		if c.scale == 1 {
			for _, x := range xs {
				if got, want := NewBernoulli(c.bound).Sample(sourceFor(x)), sourceFor(x).Bool(c.bound); got != want {
					t.Fatalf("p=%v draw %#x: Bernoulli %v, Bool %v", c.bound, x, got, want)
				}
			}
		}
	}
}

// FuzzSamplerTables checks an arbitrary draw, and the first and last draw of
// its bucket, against the formula for an arbitrary Geom mean and Zipf
// (n, theta).
func FuzzSamplerTables(f *testing.F) {
	f.Add(8.0, uint64(8192), 1.35, uint64(0))
	f.Add(150.0, uint64(340), 1.2, uint64(1)<<63)
	f.Add(3.5, uint64(2), 0.8, uint64(math.MaxUint64))
	f.Add(math.NaN(), uint64(1)<<40, 1.0000001, uint64(12345))
	f.Fuzz(func(t *testing.T, mean float64, n uint64, theta float64, x uint64) {
		g := NewGeom(mean)
		nn := int(n >> 1) // any non-negative int
		z := NewZipf(nn, theta)
		lo := x &^ (math.MaxUint64 >> tableBits)
		for _, x := range []uint64{x, lo, lo | math.MaxUint64>>tableBits} {
			checkDraw(t, "Geom", x, g.Sample, func(src *Source) int { return geomRef(mean, src) })
			checkDraw(t, "Zipf", x, z.Sample, func(src *Source) int { return src.Zipf(nn, theta) })
		}
	})
}

// The benchmarks time one draw at the parameters the SPEC2006 stand-ins
// use: basic-block length, dependence depth and reuse depth means for Geom,
// the hot-data and hot-code samplers for Zipf.

func BenchmarkGeomSample(b *testing.B) {
	for _, c := range []struct {
		name string
		mean float64
	}{{"bb=5.5", 5.5}, {"dep=4", 4}, {"reuse=150", 150}} {
		b.Run(c.name, func(b *testing.B) {
			g, s := NewGeom(c.mean), New(1)
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += g.Sample(s)
			}
			sink = sum
		})
	}
}

func BenchmarkZipfSample(b *testing.B) {
	for _, c := range []struct {
		name  string
		n     int
		theta float64
	}{{"data=8192", 8192, 1.35}, {"code=340", 340, 1.2}} {
		b.Run(c.name, func(b *testing.B) {
			z, s := NewZipf(c.n, c.theta), New(1)
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += z.Sample(s)
			}
			sink = sum
		})
	}
}

var sink int
