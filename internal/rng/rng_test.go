package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical outputs across seeds", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	f1 := parent.Fork(1)
	// Forking must not advance the parent.
	f1again := New(7).Fork(1)
	for i := 0; i < 100; i++ {
		if f1.Uint64() != f1again.Uint64() {
			t.Fatalf("fork not stable at step %d", i)
		}
	}
	// Distinct keys give distinct streams.
	a, b := parent.Fork(2), parent.Fork(3)
	if a.Uint64() == b.Uint64() {
		t.Fatal("forks with different keys produced identical first values")
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			f := s.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for n := 1; n <= 20; n++ {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestGeomSamplerMatchesMean(t *testing.T) {
	s := New(12)
	for _, mean := range []float64{1, 2, 2.9, 3.5, 8, 50, 400} {
		g := NewGeom(mean)
		if math.Float64bits(g.Mean()) != math.Float64bits(mean) {
			t.Fatalf("Mean() = %v, want %v", g.Mean(), mean)
		}
		var sum float64
		n := 30000
		minSeen := 1 << 30
		for i := 0; i < n; i++ {
			v := g.Sample(s)
			if v < 1 {
				t.Fatalf("Geom(%v) sample %d < 1", mean, v)
			}
			if v < minSeen {
				minSeen = v
			}
			sum += float64(v)
		}
		got := sum / float64(n)
		want := mean
		if mean < 1 {
			want = 1
		}
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("Geom(%v) sample mean = %v", mean, got)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(13)
	var sum, sq float64
	n := 50000
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sq/float64(n) - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %v", mean)
	}
	if math.Abs(sd-3) > 0.1 {
		t.Errorf("Normal sd = %v", sd)
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	s := New(15)
	n := 1000
	counts := make([]int, n+1)
	for i := 0; i < 50000; i++ {
		v := s.Zipf(n, 1.2)
		if v < 1 || v > n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Zipf must be head-heavy: rank 1 much more frequent than rank 100.
	if counts[1] < 10*counts[100]+1 {
		t.Errorf("Zipf not skewed: c[1]=%d c[100]=%d", counts[1], counts[100])
	}
	if s.Zipf(1, 1.2) != 1 {
		t.Error("Zipf(1) != 1")
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		p := s.Perm(30)
		seen := make([]bool, 30)
		for _, v := range p {
			if v < 0 || v >= 30 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffle(t *testing.T) {
	s := New(17)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

// TestZipfSamplerMatchesSource checks that the precomputed sampler returns
// exactly what Source.Zipf returns and consumes the same draws, including
// the n <= 1 cases that draw nothing and the theta == 1 branch.
func TestZipfSamplerMatchesSource(t *testing.T) {
	const draws = 100_000
	for _, n := range []int{0, 1, 2, 17, 4096} {
		for _, theta := range []float64{0.8, 1, 1.2, 1.35} {
			z := NewZipf(n, theta)
			a, b := New(uint64(n)*31+7), New(uint64(n)*31+7)
			for i := 0; i < draws; i++ {
				if got, want := z.Sample(a), b.Zipf(n, theta); got != want {
					t.Fatalf("n=%d theta=%v draw %d: sampler %d, Source.Zipf %d", n, theta, i, got, want)
				}
			}
			if a.state != b.state {
				t.Fatalf("n=%d theta=%v: source states diverged", n, theta)
			}
		}
	}
}
