// Package trace synthesizes dynamic instruction traces that stand in for
// the paper's Alpha-compiled SPEC2006 binaries running under gem5.
//
// The paper's methodology consumes only (a) microarchitecture-independent
// shard profiles and (b) measured performance, so the substitution
// requirement is behavioral: applications must differ from one another in
// instruction mix, locality, ILP, and control behavior; each application
// must exhibit intra-application phase diversity at shard granularity
// (Section 2.1); and bwaves must be a genuine outlier (Section 4.5).
// Generators are statistical machines with explicit knobs for exactly the
// characteristics in Table 1, driven by deterministic per-shard random
// streams so any shard can be regenerated independently. App.ShardTrace
// materializes a shard as one instruction slice, which the profiler and then
// every simulated architecture walk.
package trace

import (
	"fmt"

	"hsmodel/internal/isa"
	"hsmodel/internal/rng"
)

// BlockBytes is the data/instruction block granularity used for locality
// modeling (64B, matching the paper's x8/x9 characteristics).
const BlockBytes = 64

// InstBytes is the encoded size of one instruction (fixed-width RISC).
const InstBytes = 4

// Phase describes one statistically stationary region of program behavior.
// A phase is deliberately longer than a shard so shards preserve
// intra-application diversity (Section 2.1: "we simply ensure that shards
// are shorter than phases").
type Phase struct {
	Name string

	// Mix gives relative weights for non-control instruction classes,
	// indexed by isa.Class for IntALU, IntMulDiv, FPALU, FPMulDiv, Load,
	// Store. Weights need not sum to 1.
	Mix [6]float64

	// MeanBB is the mean basic-block size in instructions, including the
	// terminating branch (Table 1 x13).
	MeanBB float64

	// TakenBias is the probability that a static branch's bias direction is
	// "taken"; Predictability is the probability a dynamic outcome follows
	// its static bias. Zero derives predictability from bias and block size
	// (see derivePredictability); real workloads' predictability tracks
	// those observable features, which is what lets models trained on
	// Table 1 characteristics account for branch behavior at all.
	TakenBias      float64
	Predictability float64

	// DepProb1 and DepProb2 are the probabilities that an instruction has a
	// first and second register operand produced by an earlier instruction.
	DepProb1, DepProb2 float64

	// DepDepth is, per producer class (IntALU, IntMulDiv, FPALU, FPMulDiv,
	// Load), the mean number of same-class instructions skipped backward
	// when selecting a producer. Larger depth = more ILP (Table 1 x10–x12);
	// the Load slot controls load-to-use pressure (pointer chasing).
	DepDepth [5]float64

	// DepProducer weights the choice of producer class, indexed like
	// DepDepth. A zero array derives weights from the instruction mix
	// (consumers depend on whatever the code actually computes), keeping
	// dependence structure inferable from the Table 1 mix characteristics.
	DepProducer [5]float64

	// WSBlocks is the data working-set size in 64B blocks.
	WSBlocks int
	// ReuseFrac is the probability a memory access re-references a recently
	// used block; ReuseDepth is the mean recency depth of such re-references
	// (in accesses). Together they set temporal locality (Table 1 x8).
	ReuseFrac  float64
	ReuseDepth float64
	// StreamFrac is the probability a non-reuse access comes from a
	// sequential stream walking the working set word by word
	// (bwaves/gemsFDTD style).
	StreamFrac float64
	// HotTheta is the Zipf exponent concentrating non-reuse, non-stream
	// accesses onto hot blocks. Zero selects the global default of 1.35;
	// per-phase overrides would make locality partially unobservable to the
	// Table 1 characteristics, so workloads leave this derived.
	HotTheta float64

	// CodeBlocks is the hot code footprint in 64B instruction blocks;
	// LoopBackProb is the probability a taken branch is a loop-back jump
	// rather than a jump to a Zipf-distributed hot block (Table 1 x9).
	// Zero derives it from TakenBias (loop-dominated code is what produces
	// taken-biased branches in the first place).
	CodeBlocks   int
	LoopBackProb float64
}

// Segment is one entry of an application's repeating phase timeline.
type Segment struct {
	Phase Phase
	// Insts is the segment length in dynamic instructions.
	Insts int
}

// App is a synthetic application: a named, seeded, repeating timeline of
// phases. The zero value is not useful; construct via the Workloads table or
// literal composition.
type App struct {
	Name     string
	Seed     uint64
	Segments []Segment
}

// TimelineLen returns the total instructions in one pass over the timeline.
func (a *App) TimelineLen() int {
	var n int
	for _, s := range a.Segments {
		n += s.Insts
	}
	return n
}

// PhaseAt returns the phase active at global instruction index idx and the
// index of the segment within the timeline.
func (a *App) PhaseAt(idx int) (Phase, int) {
	tl := a.TimelineLen()
	if tl == 0 {
		panic(fmt.Sprintf("trace: app %q has empty timeline", a.Name))
	}
	pos := idx % tl
	for i, s := range a.Segments {
		if pos < s.Insts {
			return s.Phase, i
		}
		pos -= s.Insts
	}
	return a.Segments[len(a.Segments)-1].Phase, len(a.Segments) - 1
}

// ShardTrace returns shard shardIdx's shardLen instructions in one
// exact-size slice. The trace depends only on (App.Seed, shardIdx), so a
// shard profiled once can be replayed bit-identically on every architecture
// (Section 2.2's portability requirement).
func (a *App) ShardTrace(shardIdx, shardLen int) []isa.Inst {
	phase, segIdx := a.PhaseAt(shardIdx * shardLen)
	src := rng.New(a.Seed).Fork(uint64(shardIdx))
	// Transition shards: program phases do not switch on shard boundaries,
	// so some shards straddle two phases. Blending populates the software
	// space between an application's phase clusters, which is exactly the
	// intra-application diversity Section 2.1's sharding is meant to expose.
	if len(a.Segments) > 1 && src.Bool(0.3) {
		other := a.Segments[src.Intn(len(a.Segments))].Phase
		phase = blendPhase(phase, other, 0.5*src.Float64())
	}
	g := newGenerator(jitterPhase(phase, src), src, uint64(a.Seed)<<20+uint64(segIdx))
	insts := make([]isa.Inst, shardLen)
	for i := range insts {
		g.fill(&insts[i])
	}
	return insts
}

// ShardStream returns ShardTrace's instructions as a SliceStream.
func (a *App) ShardStream(shardIdx, shardLen int) *isa.SliceStream {
	return &isa.SliceStream{Insts: a.ShardTrace(shardIdx, shardLen)}
}

// blendPhase linearly interpolates two phases by alpha (0 = pure a).
func blendPhase(a, b Phase, alpha float64) Phase {
	l := func(x, y float64) float64 { return x + alpha*(y-x) }
	out := a
	for i := range out.Mix {
		out.Mix[i] = l(a.Mix[i], b.Mix[i])
	}
	out.MeanBB = l(a.MeanBB, b.MeanBB)
	out.TakenBias = l(a.TakenBias, b.TakenBias)
	out.Predictability = l(a.Predictability, b.Predictability)
	out.DepProb1 = l(a.DepProb1, b.DepProb1)
	out.DepProb2 = l(a.DepProb2, b.DepProb2)
	for i := range out.DepDepth {
		out.DepDepth[i] = l(a.DepDepth[i], b.DepDepth[i])
		out.DepProducer[i] = l(a.DepProducer[i], b.DepProducer[i])
	}
	out.WSBlocks = int(l(float64(a.WSBlocks), float64(b.WSBlocks)))
	out.ReuseFrac = l(a.ReuseFrac, b.ReuseFrac)
	out.ReuseDepth = l(a.ReuseDepth, b.ReuseDepth)
	out.StreamFrac = l(a.StreamFrac, b.StreamFrac)
	out.CodeBlocks = int(l(float64(a.CodeBlocks), float64(b.CodeBlocks)))
	out.LoopBackProb = l(a.LoopBackProb, b.LoopBackProb)
	return out
}

// jitterPhase perturbs phase parameters per shard. Real 10M-instruction
// shards vary substantially around their phase's mean behavior (input
// dependence, allocator state, data-dependent control flow); this sampling
// variance is what lets models infer continuous trends rather than memorize
// per-application clusters.
func jitterPhase(p Phase, src *rng.Source) Phase {
	j := func(x, amp float64) float64 { return x * (1 + amp*(src.Float64()*2-1)) }
	for i := range p.Mix {
		p.Mix[i] = j(p.Mix[i], 0.20)
	}
	p.MeanBB = j(p.MeanBB, 0.15)
	p.TakenBias = clamp01(j(p.TakenBias, 0.06))
	p.ReuseDepth = j(p.ReuseDepth, 0.40)
	p.ReuseFrac = clamp01(j(p.ReuseFrac, 0.15))
	p.StreamFrac = clamp01(j(p.StreamFrac, 0.25))
	for i := range p.DepDepth {
		p.DepDepth[i] = j(p.DepDepth[i], 0.30)
	}
	// Working sets swing by up to 2x in either direction (log-uniform).
	scale := 0.5 * (1 + 3*src.Float64()) // 0.5 .. 2.0
	p.WSBlocks = maxInt(int(float64(p.WSBlocks)*scale), 64)
	p.CodeBlocks = maxInt(int(j(float64(p.CodeBlocks), 0.25)), 16)
	return p
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// recencyRingSize bounds the temporal-reuse window in accesses.
const recencyRingSize = 1 << 12

// wordsPerBlock is the number of 8-byte words per 64B block; streams advance
// word by word so a sequential walk touches each block several times the way
// compiled array code does.
const wordsPerBlock = BlockBytes / 8

// occRingSize bounds the per-class producer lookback in occurrences.
const occRingSize = 64

// generator emits instructions for a single shard.
type generator struct {
	phase   Phase
	src     *rng.Source
	idx     int64 // dynamic instruction index within the shard
	codeOff uint64

	// Control state.
	curBlock  uint64 // current 64B code block index
	pcInBlock uint64 // byte offset within code block
	bbLeft    int    // instructions remaining in current basic block

	// Memory state.
	recency    [recencyRingSize]uint64 // recently accessed data blocks
	recencyLen int
	recencyPos int
	streamWord uint64 // streaming pointer in 8-byte words

	// Producer occurrence rings per producer class.
	occ    [5][occRingSize]int64
	occLen [5]int
	occPos [5]int

	// The occupied classes (occLen > 0) in class order, the total of their
	// DepProducer weights, and each running sum as the rng.Cut of a draw
	// scaled by the total: the first occN entries of occCls and occCut hold
	// them. The occupied set only grows, so recordProducer recomputes them
	// only when a class gets its first occurrence.
	occCls   [5]int
	occCut   [5]uint64
	occN     int
	occTotal float64

	// Cached cumulative mix weights and precomputed samplers. mixCut[i] is
	// rng.Cut(mixTotal, Mix[0]+...+Mix[i]), so a draw below it picks class i
	// or an earlier one exactly as the float comparison would.
	mixTotal  float64
	mixCut    [6]uint64
	bbGeom    rng.Geom
	reuseGeom rng.Geom
	depGeom   [5]rng.Geom
	dataZipf  rng.Zipf // hot data blocks: (WSBlocks, HotTheta)
	codeZipf  rng.Zipf // hot code blocks: (CodeBlocks, 1.2)

	// Coins for the phase's fixed probabilities, each drawn exactly as
	// src.Bool(p) would be.
	follow, loopBack, reuse, stream, dep1, dep2 rng.Bernoulli
}

// deriveHiddenKnobs fills every zero-valued generator knob that is not
// directly observable in the Table 1 characteristics from knobs that are.
// With all hidden knobs derived, the thirteen portable characteristics are
// (approximately) sufficient statistics for a shard's timing behavior —
// the property the paper's real workloads have and an adversarially
// configured synthetic workload would not.
func deriveHiddenKnobs(p *Phase) {
	if p.Predictability == 0 {
		p.Predictability = derivePredictability(*p)
	}
	if p.HotTheta == 0 {
		p.HotTheta = 1.35
	}
	if p.LoopBackProb == 0 {
		p.LoopBackProb = 0.25 + 0.55*p.TakenBias
	}
	var total float64
	for _, w := range p.DepProducer {
		total += w
	}
	if total == 0 {
		// Producer classes in proportion to the mix: IntALU, IntMulDiv,
		// FPALU, FPMulDiv, Load.
		p.DepProducer = [5]float64{
			p.Mix[0], p.Mix[1], p.Mix[2], p.Mix[3], p.Mix[4],
		}
	}
}

// derivePredictability models the empirical regularity that loop-dominated
// code (strongly biased branches, large basic blocks) predicts well while
// data-dependent branchy code does not.
func derivePredictability(p Phase) float64 {
	bias := 2*p.TakenBias - 1
	if bias < 0 {
		bias = -bias
	}
	pred := 0.875 + 0.08*bias + 0.006*p.MeanBB
	if pred > 0.99 {
		pred = 0.99
	}
	if pred < 0.80 {
		pred = 0.80
	}
	return pred
}

func newGenerator(p Phase, src *rng.Source, codeSeed uint64) *generator {
	g := &generator{phase: p, src: src}
	deriveHiddenKnobs(&g.phase)
	// Distinct applications live in distinct code regions so i-cache
	// behavior differs across apps sharing a simulated machine.
	g.codeOff = (codeSeed % 1024) << 32
	g.bbGeom = rng.NewGeom(p.MeanBB)
	g.curBlock = uint64(src.Intn(maxInt(p.CodeBlocks, 1)))
	g.bbLeft = g.bbGeom.Sample(src)
	g.streamWord = uint64(src.Intn(maxInt(p.WSBlocks, 1))) * wordsPerBlock
	g.reuseGeom = rng.NewGeom(p.ReuseDepth)
	for i, d := range p.DepDepth {
		g.depGeom[i] = rng.NewGeom(d)
	}
	g.dataZipf = rng.NewZipf(maxInt(g.phase.WSBlocks, 1), g.phase.HotTheta)
	g.codeZipf = rng.NewZipf(maxInt(g.phase.CodeBlocks, 1), 1.2)
	g.follow = rng.NewBernoulli(g.phase.Predictability)
	g.loopBack = rng.NewBernoulli(g.phase.LoopBackProb)
	g.reuse = rng.NewBernoulli(g.phase.ReuseFrac)
	g.stream = rng.NewBernoulli(g.phase.StreamFrac)
	g.dep1 = rng.NewBernoulli(g.phase.DepProb1)
	g.dep2 = rng.NewBernoulli(g.phase.DepProb2)
	for _, w := range p.Mix {
		g.mixTotal += w
	}
	if g.mixTotal <= 0 {
		panic("trace: phase has zero total mix weight")
	}
	var acc float64
	for i, w := range p.Mix {
		acc += w
		g.mixCut[i] = rng.Cut(g.mixTotal, acc)
	}
	return g
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// fill writes the shard's next instruction into in.
func (g *generator) fill(in *isa.Inst) {
	*in = isa.Inst{}
	in.PC = g.codeOff + g.curBlock*BlockBytes + g.pcInBlock

	if g.bbLeft <= 1 {
		g.emitBranch(in)
	} else {
		g.emitBody(in)
	}
	g.advancePC(in)
	g.recordProducer(in.Class)
	g.idx++
}

// emitBody produces a non-control instruction according to the phase mix.
func (g *generator) emitBody(in *isa.Inst) {
	g.bbLeft--
	m := g.src.Uint64() >> 11
	cls := isa.IntALU
	for i, c := range g.mixCut {
		if m < c {
			cls = isa.Class(i)
			break
		}
	}
	in.Class = cls
	if cls.IsMemory() {
		in.Addr = g.dataAddress()
	}
	g.assignDeps(in)
}

// emitBranch terminates the current basic block.
func (g *generator) emitBranch(in *isa.Inst) {
	in.Class = isa.Branch
	in.BlockEnd = true
	// Static branch identity: one branch per (code block, slot) pair.
	in.BrID = uint32(g.curBlock*16 + g.pcInBlock/InstBytes)
	bias := staticBias(in.BrID, g.phase.TakenBias)
	follow := g.follow.Sample(g.src)
	in.Taken = bias == follow
	g.assignDeps(in)
	g.bbLeft = g.bbGeom.Sample(g.src)
}

// staticBias derives a stable per-branch bias direction from the branch ID.
func staticBias(brID uint32, takenBias float64) bool {
	h := uint64(brID) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return float64(h%1024)/1024 < takenBias
}

// advancePC moves the program counter, following taken branches.
func (g *generator) advancePC(in *isa.Inst) {
	if in.Class == isa.Branch && in.Taken {
		cb := maxInt(g.phase.CodeBlocks, 1)
		if g.loopBack.Sample(g.src) {
			// A loop-back jump returns to the previous block. The discarded
			// draw keeps every generated stream, and the goldens that pin
			// them, bit-identical.
			g.src.Uint64()
			g.curBlock = (g.curBlock + uint64(cb) - 1) % uint64(cb)
		} else {
			// Jump into the hot-block distribution.
			g.curBlock = uint64(g.codeZipf.Sample(g.src) - 1)
		}
		g.pcInBlock = 0
		return
	}
	g.pcInBlock += InstBytes
	if g.pcInBlock >= BlockBytes {
		g.pcInBlock = 0
		g.curBlock = (g.curBlock + 1) % uint64(maxInt(g.phase.CodeBlocks, 1))
	}
}

// dataAddress produces the next data block address under the phase's
// locality model and returns it as a byte address.
func (g *generator) dataAddress() uint64 {
	var block uint64
	ws := maxInt(g.phase.WSBlocks, 1)
	switch {
	case g.recencyLen > 0 && g.reuse.Sample(g.src):
		// Temporal reuse: revisit a recently touched block at geometric
		// recency depth. This is the direct knob behind Table 1's x8.
		depth := g.reuseGeom.Sample(g.src)
		if depth > g.recencyLen {
			depth = g.recencyLen
		}
		pos := (g.recencyPos - depth + recencyRingSize*2) % recencyRingSize
		block = g.recency[pos]
	case g.stream.Sample(g.src):
		// Streaming: walk the working set sequentially, one word at a time.
		g.streamWord = (g.streamWord + 1) % (uint64(ws) * wordsPerBlock)
		block = g.streamWord / wordsPerBlock
	default:
		// Hot-data reference: Zipf over the working set.
		block = uint64(g.dataZipf.Sample(g.src) - 1)
	}
	g.recency[g.recencyPos] = block
	g.recencyPos = (g.recencyPos + 1) % recencyRingSize
	if g.recencyLen < recencyRingSize {
		g.recencyLen++
	}
	return block * BlockBytes
}

// assignDeps attaches producer distances to an instruction.
func (g *generator) assignDeps(in *isa.Inst) {
	if g.dep1.Sample(g.src) {
		in.Dep1 = g.pickProducer()
	}
	if g.dep2.Sample(g.src) {
		in.Dep2 = g.pickProducer()
	}
}

// pickProducer selects a producer class by weight, then a same-class
// occurrence at geometric depth, returning the dynamic-instruction distance
// (0 when no suitable producer exists yet).
func (g *generator) pickProducer() int32 {
	if g.occTotal == 0 {
		return 0
	}
	m := g.src.Uint64() >> 11
	cls := -1
	for k, c := range g.occCut[:g.occN] {
		if m < c {
			cls = g.occCls[k]
			break
		}
	}
	if cls < 0 {
		return 0
	}
	depth := g.depGeom[cls].Sample(g.src)
	if depth > g.occLen[cls] {
		depth = g.occLen[cls]
	}
	pos := (g.occPos[cls] - depth + occRingSize*2) % occRingSize
	dist := g.idx - g.occ[cls][pos]
	if dist <= 0 || dist > isa.MaxDepDistance {
		return 0
	}
	return int32(dist)
}

// recordProducer registers the just-emitted instruction as a potential
// producer for later consumers.
func (g *generator) recordProducer(c isa.Class) {
	var slot int
	switch c {
	case isa.IntALU:
		slot = 0
	case isa.IntMulDiv:
		slot = 1
	case isa.FPALU:
		slot = 2
	case isa.FPMulDiv:
		slot = 3
	case isa.Load:
		slot = 4
	default:
		return // stores and branches do not produce register values
	}
	g.occ[slot][g.occPos[slot]] = g.idx
	g.occPos[slot] = (g.occPos[slot] + 1) % occRingSize
	if g.occLen[slot] < occRingSize {
		g.occLen[slot]++
		if g.occLen[slot] == 1 {
			g.sumOccupied()
		}
	}
}

// sumOccupied recomputes the occupied classes' running sums, adding their
// weights in class order, so the sums are the ones a fresh pass over the
// classes would give, bit for bit, and a draw below occCut[k] picks the
// class a float draw scaled by occTotal and compared with the sums would.
func (g *generator) sumOccupied() {
	var acc float64
	var cum [5]float64
	g.occN = 0
	for i, w := range g.phase.DepProducer {
		if g.occLen[i] > 0 {
			acc += w
			g.occCls[g.occN] = i
			cum[g.occN] = acc
			g.occN++
		}
	}
	g.occTotal = acc
	for k := range g.occN {
		g.occCut[k] = rng.Cut(acc, cum[k])
	}
}
