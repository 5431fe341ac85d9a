// Package profile implements the paper's shard-level,
// microarchitecture-independent software profiler (Sections 2.1–2.2,
// Table 1). A profiler consumes a dynamic instruction trace — the paper
// instrumented gem5's commit stage to get the same stream regardless of the
// out-of-order engine; here the trace comes straight from the workload
// generator, which is equivalent by construction — and produces the thirteen
// characteristics x1..x13:
//
//	x1  # control instructions            x8  avg re-use distance, 64B d-blocks
//	x2  # taken branches                  x9  avg re-use distance, 64B i-blocks
//	x3  # floating-point ALU              x10 producer→consumer distance, FP ALU
//	x4  # floating-point mul/div          x11 producer→consumer distance, FP mul
//	x5  # integer mul/div                 x12 producer→consumer distance, int mul
//	x6  # integer ALU                     x13 avg basic-block size
//	x7  # memory operations
//
// Counts (x1–x7) are reported per kilo-instruction so profiles are
// comparable across shard lengths; distances (x8–x12) are in dynamic
// instructions, as the paper defines re-use distance ("the number of
// instructions separating two consecutive accesses to the same data block").
package profile

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hsmodel/internal/isa"
)

// NumCharacteristics is the number of software characteristics in Table 1.
const NumCharacteristics = 13

// Characteristic indices into Characteristics (0-based; the paper's x_i is
// index i-1).
const (
	XControl = iota
	XTakenBranches
	XFPALU
	XFPMulDiv
	XIntMulDiv
	XIntALU
	XMemory
	XDReuse
	XIReuse
	XFPALUDist
	XFPMulDist
	XIntMulDist
	XBasicBlock
)

// Names gives the paper's description for each characteristic, indexed as
// above.
var Names = [NumCharacteristics]string{
	"x1 #Control",
	"x2 #TakenBranches",
	"x3 #FloatALU",
	"x4 #FloatMulDiv",
	"x5 #IntMulDiv",
	"x6 #IntALU",
	"x7 #Memory",
	"x8 d-reuse distance (64B)",
	"x9 i-reuse distance (64B)",
	"x10 FPALU producer-consumer dist",
	"x11 FPMul producer-consumer dist",
	"x12 IntMul producer-consumer dist",
	"x13 avg basic block size",
}

// Characteristics holds the thirteen Table 1 measures for one shard.
type Characteristics [NumCharacteristics]float64

// ShardProfile is the portable profile of one application shard plus the
// auxiliary 256-byte-block sum-of-reuse-distances used in Figure 3's
// variance-stabilization study.
type ShardProfile struct {
	App         string
	Shard       int
	Insts       int
	X           Characteristics
	SumReuse256 float64
}

func (p ShardProfile) String() string {
	return fmt.Sprintf("%s/shard%d: %v", p.App, p.Shard, p.X)
}

// blockBytes is the 64B block granularity of x8/x9; wideBlockBytes is the
// 256B granularity of the Figure 3 sum-of-distances characteristic.
const (
	blockBytes     = 64
	wideBlockBytes = 256
)

// Profiler accumulates characteristics over a stream. The zero value is
// ready to use.
//
// Re-use distances need, per block, the index of the instruction that last
// touched it. Three reuseTables hold those indices (64B data blocks for x8,
// 64B instruction blocks for x9, 256B data blocks for SumReuse256); each
// access is one probe that reads the previous index and stores the current
// one.
type Profiler struct {
	insts      int64
	classCount [isa.NumClasses]int64
	taken      int64

	dLast    reuseTable // 64B data block -> last access instruction index
	iLast    reuseTable // 64B inst block -> last access instruction index
	d256Last reuseTable // 256B data block -> last access instruction index

	dReuseSum, iReuseSum float64
	dReuseN, iReuseN     int64
	sumReuse256          float64
	prodDistSum          [isa.NumClasses]float64
	prodDistN            [isa.NumClasses]int64
	recentClasses        [isa.MaxDepDistance + 1]isa.Class
}

// Observe feeds one instruction into the profiler. Instructions must be
// presented in program order.
func (pr *Profiler) Observe(in *isa.Inst) {
	idx := pr.insts
	pr.classCount[in.Class]++
	if in.Class == isa.Branch && in.Taken {
		pr.taken++
	}
	if in.Class.IsMemory() {
		pr.reuse(&pr.dLast, in.Addr/blockBytes, idx, &pr.dReuseSum, &pr.dReuseN)
		if last, ok := pr.d256Last.swap(in.Addr/wideBlockBytes, idx); ok {
			pr.sumReuse256 += float64(idx - last)
		}
	}
	pr.reuse(&pr.iLast, in.PC/blockBytes, idx, &pr.iReuseSum, &pr.iReuseN)

	// Producer→consumer distances, attributed to the producer's class
	// (Table 1 x10–x12). The producer's class comes from a ring of recent
	// classes; distances beyond the ring carry no dependence by contract.
	pr.observeDep(idx, in.Dep1)
	pr.observeDep(idx, in.Dep2)
	pr.recentClasses[idx%int64(len(pr.recentClasses))] = in.Class
	pr.insts++
}

func (pr *Profiler) observeDep(idx int64, dist int32) {
	if dist <= 0 || int64(dist) > idx || dist > isa.MaxDepDistance {
		return
	}
	producer := idx - int64(dist)
	cls := pr.recentClasses[producer%int64(len(pr.recentClasses))]
	pr.prodDistSum[cls] += float64(dist)
	pr.prodDistN[cls]++
}

func (pr *Profiler) reuse(last *reuseTable, block uint64, idx int64, sum *float64, n *int64) {
	if prev, ok := last.swap(block, idx); ok {
		*sum += float64(idx - prev)
		*n++
	}
}

// Finish returns the accumulated shard profile. app and shard label the
// result; they do not affect the measurements.
func (pr *Profiler) Finish(app string, shard int) ShardProfile {
	n := pr.insts
	if n == 0 {
		return ShardProfile{App: app, Shard: shard}
	}
	perKilo := func(c int64) float64 { return 1000 * float64(c) / float64(n) }
	avg := func(sum float64, cnt int64) float64 {
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	var x Characteristics
	control := pr.classCount[isa.Branch]
	x[XControl] = perKilo(control)
	x[XTakenBranches] = perKilo(pr.taken)
	x[XFPALU] = perKilo(pr.classCount[isa.FPALU])
	x[XFPMulDiv] = perKilo(pr.classCount[isa.FPMulDiv])
	x[XIntMulDiv] = perKilo(pr.classCount[isa.IntMulDiv])
	x[XIntALU] = perKilo(pr.classCount[isa.IntALU])
	x[XMemory] = perKilo(pr.classCount[isa.Load] + pr.classCount[isa.Store])
	x[XDReuse] = avg(pr.dReuseSum, pr.dReuseN)
	x[XIReuse] = avg(pr.iReuseSum, pr.iReuseN)
	x[XFPALUDist] = avg(pr.prodDistSum[isa.FPALU], pr.prodDistN[isa.FPALU])
	x[XFPMulDist] = avg(pr.prodDistSum[isa.FPMulDiv], pr.prodDistN[isa.FPMulDiv])
	x[XIntMulDist] = avg(pr.prodDistSum[isa.IntMulDiv], pr.prodDistN[isa.IntMulDiv])
	if control > 0 {
		x[XBasicBlock] = float64(n) / float64(control)
	} else {
		x[XBasicBlock] = float64(n)
	}
	return ShardProfile{
		App:         app,
		Shard:       shard,
		Insts:       int(n),
		X:           x,
		SumReuse256: pr.sumReuse256,
	}
}

// Stream profiles the stream's unread instructions.
func Stream(ss *isa.SliceStream, app string, shard int) ShardProfile {
	var pr Profiler
	insts := ss.Rest()
	for i := range insts {
		pr.Observe(&insts[i])
	}
	return pr.Finish(app, shard)
}

// StreamShards profiles many shards of one application across a pool of
// GOMAXPROCS workers (capped by the shard count). Shards are independent by
// construction (Section 2.1: each shard is a disjoint slice of the dynamic
// instruction stream), so each worker runs its own Profiler over the trace
// the factory returns for that shard. The result slice is in deterministic
// order: out[k] is the profile of shards[k], regardless of worker scheduling.
//
// The trace factory is invoked concurrently and must be safe for concurrent
// use (trace.App's ShardTrace is: each call builds its own generator state).
func StreamShards(app string, shards []int, shardTrace func(shard int) []isa.Inst) []ShardProfile {
	out := make([]ShardProfile, len(shards))
	workers := min(runtime.GOMAXPROCS(0), len(shards))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(shards) {
					return
				}
				ss := &isa.SliceStream{Insts: shardTrace(shards[k])}
				out[k] = Stream(ss, app, shards[k])
			}
		}()
	}
	wg.Wait()
	return out
}

// ShardRange returns the shard indices [0, n) — the common "profile a prefix
// of the shard pool" argument to StreamShards.
func ShardRange(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// MeanCharacteristics averages a set of shard profiles characteristic-wise —
// the "monolithic application profile" the paper contrasts sharding against
// (Section 2.1), also used for the Figure 9 outlier analysis.
func MeanCharacteristics(profiles []ShardProfile) Characteristics {
	var mean Characteristics
	if len(profiles) == 0 {
		return mean
	}
	for _, p := range profiles {
		for i, v := range p.X {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(profiles))
	}
	return mean
}
