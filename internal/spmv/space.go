package spmv

import (
	"fmt"
	"sync"

	"hsmodel/internal/cache"
	"hsmodel/internal/rng"
)

// Table 5 levels.
var (
	lineLevels  = []int{16, 32, 64, 128}
	dsizeLevels = []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
	waysLevels  = []int{1, 2, 4, 8}
	replLevels  = []cache.Replacement{cache.LRU, cache.NMRU, cache.Random}
	isizeLevels = []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
)

// MaxBlockDim bounds block rows/columns (Table 5: 1 :: 1+ :: 8).
const MaxBlockDim = 8

// SampleCacheConfig draws a uniform random Table 5 cache configuration.
func SampleCacheConfig(src *rng.Source) CacheConfig {
	return CacheConfig{
		LineBytes:  lineLevels[src.Intn(len(lineLevels))],
		DSizeBytes: dsizeLevels[src.Intn(len(dsizeLevels))],
		DWays:      waysLevels[src.Intn(len(waysLevels))],
		DRepl:      replLevels[src.Intn(len(replLevels))],
		ISizeBytes: isizeLevels[src.Intn(len(isizeLevels))],
		IWays:      waysLevels[src.Intn(len(waysLevels))],
		IRepl:      replLevels[src.Intn(len(replLevels))],
	}
}

// BaselineCache returns the mid-range reference cache configuration used as
// the untuned architecture in Figure 16.
func BaselineCache() CacheConfig {
	return CacheConfig{
		LineBytes:  16,
		DSizeBytes: 8 << 10,
		DWays:      2,
		DRepl:      cache.LRU,
		ISizeBytes: 8 << 10,
		IWays:      2,
		IRepl:      cache.LRU,
	}
}

// Study caches the expensive per-matrix artifacts: the generated CSR and
// the 64 blocked variants. A Study is safe for concurrent use.
type Study struct {
	Spec MatrixSpec
	M    *CSR

	mu      sync.Mutex
	blocked map[[2]int]*BCSR
}

// NewStudy generates the matrix and prepares the variant cache.
func NewStudy(spec MatrixSpec) *Study {
	return &Study{Spec: spec, M: spec.Generate(), blocked: make(map[[2]int]*BCSR)}
}

// Blocked returns the r x c BCSR variant, converting on first use.
func (s *Study) Blocked(r, c int) *BCSR {
	if r < 1 || r > MaxBlockDim || c < 1 || c > MaxBlockDim {
		panic(fmt.Sprintf("spmv: block size %dx%d out of range", r, c))
	}
	key := [2]int{r, c}
	s.mu.Lock()
	b, ok := s.blocked[key]
	s.mu.Unlock()
	if ok {
		return b
	}
	b = ToBCSR(s.M, r, c)
	s.mu.Lock()
	s.blocked[key] = b
	s.mu.Unlock()
	return b
}

// FillRatio returns the fill ratio of the r x c variant (Table 5's x3).
func (s *Study) FillRatio(r, c int) float64 {
	return s.Blocked(r, c).FillRatio()
}

// Simulate runs the r x c variant on cfg.
func (s *Study) Simulate(r, c int, cfg CacheConfig) KernelResult {
	return SimulateKernel(s.Blocked(r, c), cfg)
}

// Point is one sampled observation of the integrated SpMV-cache space.
type Point struct {
	R, C   int
	Fill   float64
	Cfg    CacheConfig
	MFlops float64
	Watts  float64
	NJFlop float64
}

// Sample draws n uniform random (block size, cache architecture) points and
// simulates each — the "400 sparsely sampled profiles" of Section 5.3.
func (s *Study) Sample(n int, seed uint64) []Point {
	src := rng.New(seed)
	points := make([]Point, n)
	for k := range points {
		r := 1 + src.Intn(MaxBlockDim)
		c := 1 + src.Intn(MaxBlockDim)
		cfg := SampleCacheConfig(src)
		res := s.Simulate(r, c, cfg)
		points[k] = Point{
			R: r, C: c,
			Fill:   s.FillRatio(r, c),
			Cfg:    cfg,
			MFlops: res.MFlops(),
			Watts:  res.Watts(),
			NJFlop: res.NJPerFlop(),
		}
	}
	return points
}
