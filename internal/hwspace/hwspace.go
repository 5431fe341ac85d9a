// Package hwspace defines the microarchitectural design space of Table 2.
// The thirteen regression-visible hardware parameters y1..y13 span pipeline
// width, out-of-order window resources, the cache hierarchy, and functional
// unit counts. As in the paper, several physical parameters move together as
// one modeled variable: y2 scales the load/store queue, physical register
// file, issue queue, and reorder buffer in lock step, and y3 scales L1 and
// L2 associativity together. The space deliberately includes extreme designs
// "so that models infer interior points more accurately".
package hwspace

import (
	"fmt"

	"hsmodel/internal/rng"
)

// NumParams is the number of modeled hardware parameters (y1..y13).
const NumParams = 13

// Parameter indices into Vector (0-based; the paper's y_i is index i-1).
const (
	YWidth = iota
	YWindow
	YAssoc
	YMSHR
	YDCacheKB
	YICacheKB
	YL2KB
	YL2Latency
	YIntALU
	YIntMulDiv
	YFPALU
	YFPMul
	YPorts
)

// Names gives the Table 2 description for each parameter.
var Names = [NumParams]string{
	"y1 width",
	"y2 ooo window (LSQ/regs/IQ/ROB)",
	"y3 L1/L2 associativity",
	"y4 MSHRs",
	"y5 d-cache KB",
	"y6 i-cache KB",
	"y7 L2 KB",
	"y8 L2 latency",
	"y9 int ALUs",
	"y10 int mul/div units",
	"y11 FP ALUs",
	"y12 FP mul units",
	"y13 cache ports",
}

// windowLevel bundles the four out-of-order window resources that Table 2
// scales together under y2.
type windowLevel struct {
	LSQ, PhysRegs, IQ, ROB int
}

// Table 2 levels. Ranges written "a :: s+ :: b" step additively, "a :: 2x ::
// b" double.
var (
	widthLevels  = []int{1, 2, 4, 8}
	windowLevels = []windowLevel{
		{11, 86, 22, 64},
		{16, 128, 32, 96},
		{21, 170, 42, 128},
		{26, 212, 52, 160},
		{31, 254, 62, 192},
		{36, 296, 72, 224},
	}
	l1AssocLevels = []int{1, 2, 4, 8}
	l2AssocFor    = map[int]int{1: 2, 2: 4, 4: 8, 8: 8}
	mshrLevels    = []int{1, 2, 4, 6, 8}
	dcacheLevels  = []int{16, 32, 64, 128} // KB
	icacheLevels  = []int{16, 32, 64, 128} // KB
	l2Levels      = []int{256, 512, 1024, 2048, 4096}
	l2LatLevels   = []int{6, 8, 10, 12, 14}
	intALULevels  = []int{1, 2, 3, 4}
	intMulLevels  = []int{1, 2}
	fpALULevels   = []int{1, 2, 3}
	fpMulLevels   = []int{1, 2}
	portLevels    = []int{1, 2, 3, 4}
)

// LevelCounts returns the number of discrete levels per parameter.
func LevelCounts() [NumParams]int {
	return [NumParams]int{
		len(widthLevels), len(windowLevels), len(l1AssocLevels), len(mshrLevels),
		len(dcacheLevels), len(icacheLevels), len(l2Levels), len(l2LatLevels),
		len(intALULevels), len(intMulLevels), len(fpALULevels), len(fpMulLevels),
		len(portLevels),
	}
}

// Config is one fully specified microarchitecture.
type Config struct {
	Width    int
	LSQ      int
	PhysRegs int
	IQ       int
	ROB      int
	L1Assoc  int
	L2Assoc  int
	MSHRs    int
	DCacheKB int
	ICacheKB int
	L2KB     int
	L2Lat    int
	IntALUs  int
	IntMuls  int
	FPALUs   int
	FPMuls   int
	Ports    int
}

// Indices locates a configuration in the space as per-parameter level
// indices.
type Indices [NumParams]int

// FromIndices expands level indices into a full configuration. It panics on
// out-of-range indices.
func FromIndices(ix Indices) Config {
	counts := LevelCounts()
	for p, i := range ix {
		if i < 0 || i >= counts[p] {
			panic(fmt.Sprintf("hwspace: index %d out of range for %s", i, Names[p]))
		}
	}
	w := windowLevels[ix[YWindow]]
	l1a := l1AssocLevels[ix[YAssoc]]
	return Config{
		Width:    widthLevels[ix[YWidth]],
		LSQ:      w.LSQ,
		PhysRegs: w.PhysRegs,
		IQ:       w.IQ,
		ROB:      w.ROB,
		L1Assoc:  l1a,
		L2Assoc:  l2AssocFor[l1a],
		MSHRs:    mshrLevels[ix[YMSHR]],
		DCacheKB: dcacheLevels[ix[YDCacheKB]],
		ICacheKB: icacheLevels[ix[YICacheKB]],
		L2KB:     l2Levels[ix[YL2KB]],
		L2Lat:    l2LatLevels[ix[YL2Latency]],
		IntALUs:  intALULevels[ix[YIntALU]],
		IntMuls:  intMulLevels[ix[YIntMulDiv]],
		FPALUs:   fpALULevels[ix[YFPALU]],
		FPMuls:   fpMulLevels[ix[YFPMul]],
		Ports:    portLevels[ix[YPorts]],
	}
}

// Sample draws level indices uniformly at random — the paper's sampling
// discipline ("we sample … uniformly at random").
func Sample(src *rng.Source) Indices {
	var ix Indices
	counts := LevelCounts()
	for p := range ix {
		ix[p] = src.Intn(counts[p])
	}
	return ix
}

// Vector encodes the configuration as the regression-visible y1..y13 values.
// Grouped parameters are represented by their leading member (y2 by the LSQ
// size, y3 by L1 associativity), matching the paper's modeling treatment.
func (c Config) Vector() [NumParams]float64 {
	return [NumParams]float64{
		float64(c.Width),
		float64(c.LSQ),
		float64(c.L1Assoc),
		float64(c.MSHRs),
		float64(c.DCacheKB),
		float64(c.ICacheKB),
		float64(c.L2KB),
		float64(c.L2Lat),
		float64(c.IntALUs),
		float64(c.IntMuls),
		float64(c.FPALUs),
		float64(c.FPMuls),
		float64(c.Ports),
	}
}

// String summarizes the configuration compactly.
func (c Config) String() string {
	return fmt.Sprintf("w%d/rob%d/l1d%dK/l1i%dK/l2%dK(lat%d)/a%d-%d/mshr%d/fu%d.%d.%d.%d/p%d",
		c.Width, c.ROB, c.DCacheKB, c.ICacheKB, c.L2KB, c.L2Lat,
		c.L1Assoc, c.L2Assoc, c.MSHRs, c.IntALUs, c.IntMuls, c.FPALUs, c.FPMuls, c.Ports)
}

// Baseline returns a mid-range reference configuration.
func Baseline() Config {
	return FromIndices(Indices{2, 2, 1, 2, 1, 1, 2, 2, 1, 1, 1, 0, 1})
}
