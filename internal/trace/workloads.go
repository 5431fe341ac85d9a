package trace

import "fmt"

// This file defines the seven SPEC2006 stand-ins the paper cross-compiled
// for Alpha/gem5 (Section 4.1): astar, bwaves, bzip2, gemsFDTD, hmmer,
// omnetpp, sjeng, plus the -O1/-O3 code-optimization and -v1/-v2/-v3
// input-data variants used in Section 4.4.
//
// Parameters are chosen to reproduce the qualitative workload contrasts the
// paper relies on:
//   - bwaves is the outlier of Figure 9: far more taken branches and
//     floating-point operations, far fewer integer and memory operations
//     than the other six, with a strongly bimodal CPI distribution.
//   - sjeng closely resembles the integer crowd (astar/bzip2/hmmer/omnetpp),
//     so leave-one-out extrapolation works well for it.
//   - omnetpp and astar are pointer-chasers (deep load-to-use dependences,
//     poor locality); hmmer and bzip2 are regular integer codes; gemsFDTD
//     mixes FP streaming with memory-bound phases.

// Mix weight slot indices (match isa.Class order for the first six classes).
const (
	mixIntALU = iota
	mixIntMulDiv
	mixFPALU
	mixFPMulDiv
	mixLoad
	mixStore
)

// Astar returns the astar stand-in: integer path-finding with data-dependent
// branches and pointer-heavy memory behavior.
func Astar() *App {
	search := Phase{
		Name:           "search",
		Mix:            [6]float64{0.38, 0.02, 0.01, 0.00, 0.30, 0.10},
		MeanBB:         5.5,
		TakenBias:      0.55,
		Predictability: 0, // derived
		DepProb1:       0.85, DepProb2: 0.35,
		DepDepth:    [5]float64{2.5, 4, 6, 6, 1.6},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 13,      // 512 KB graph hot set
		ReuseFrac:   0.75, ReuseDepth: 150, StreamFrac: 0.10,
		CodeBlocks: 340, LoopBackProb: 0, // derived
	}
	expand := Phase{
		Name:           "expand",
		Mix:            [6]float64{0.44, 0.03, 0.01, 0.00, 0.26, 0.12},
		MeanBB:         6.5,
		TakenBias:      0.60,
		Predictability: 0, // derived
		DepProb1:       0.85, DepProb2: 0.30,
		DepDepth:    [5]float64{3.2, 4, 6, 6, 2.2},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 11,
		ReuseFrac:   0.82, ReuseDepth: 50, StreamFrac: 0.08,
		CodeBlocks: 260, LoopBackProb: 0, // derived
	}
	return &App{Name: "astar", Seed: 0xA57A0001, Segments: []Segment{
		{Phase: search, Insts: 4_000_000},
		{Phase: expand, Insts: 3_000_000},
		{Phase: search, Insts: 5_000_000},
	}}
}

// Bwaves returns the bwaves stand-in: blast-wave CFD — FP-dominant, tight
// vectorizable loops (many taken loop-back branches), streaming memory, and
// two sharply different phases that make its CPI distribution bimodal.
func Bwaves() *App {
	// High-ILP FP streaming phase: runs near CPI 0.5 on mid-range cores.
	stream := Phase{
		Name:           "fp-stream",
		Mix:            [6]float64{0.10, 0.01, 0.38, 0.16, 0.14, 0.06},
		MeanBB:         7.0,
		TakenBias:      0.93, // loop-back dominated
		Predictability: 0,    // derived
		DepProb1:       0.80, DepProb2: 0.45,
		DepDepth:    [5]float64{5, 6, 9, 10, 7},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 16,      // 4 MB field arrays
		ReuseFrac:   0.25, ReuseDepth: 300, StreamFrac: 0.92,
		CodeBlocks: 120, LoopBackProb: 0, // derived
	}
	// Solver phase: recurrences and long-latency FP divides, near CPI 1.0+.
	solve := Phase{
		Name:           "fp-solve",
		Mix:            [6]float64{0.12, 0.01, 0.34, 0.22, 0.13, 0.05},
		MeanBB:         9.0,
		TakenBias:      0.90,
		Predictability: 0, // derived
		DepProb1:       0.90, DepProb2: 0.55,
		DepDepth:    [5]float64{2, 2.5, 2.2, 2.0, 3},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 16,
		ReuseFrac:   0.45, ReuseDepth: 400, StreamFrac: 0.55,
		CodeBlocks: 150, LoopBackProb: 0, // derived
	}
	return &App{Name: "bwaves", Seed: 0xB3A7E002, Segments: []Segment{
		{Phase: stream, Insts: 5_000_000},
		{Phase: solve, Insts: 5_000_000},
	}}
}

// Bzip2 returns the bzip2 stand-in: regular integer compression with good
// locality and a modest working set.
func Bzip2() *App {
	compress := Phase{
		Name:           "compress",
		Mix:            [6]float64{0.46, 0.03, 0.00, 0.00, 0.26, 0.11},
		MeanBB:         7.0,
		TakenBias:      0.58,
		Predictability: 0, // derived
		DepProb1:       0.88, DepProb2: 0.40,
		DepDepth:    [5]float64{2.8, 4, 6, 6, 3.0},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 12,      // ~256 KB block sort
		ReuseFrac:   0.82, ReuseDepth: 60, StreamFrac: 0.18,
		CodeBlocks: 180, LoopBackProb: 0, // derived
	}
	huffman := Phase{
		Name:           "huffman",
		Mix:            [6]float64{0.52, 0.02, 0.00, 0.00, 0.24, 0.08},
		MeanBB:         5.0,
		TakenBias:      0.52,
		Predictability: 0, // derived
		DepProb1:       0.90, DepProb2: 0.42,
		DepDepth:    [5]float64{2.0, 3, 6, 6, 2.4},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 10,
		ReuseFrac:   0.88, ReuseDepth: 30, StreamFrac: 0.10,
		CodeBlocks: 140, LoopBackProb: 0, // derived
	}
	return &App{Name: "bzip2", Seed: 0xB21B2003, Segments: []Segment{
		{Phase: compress, Insts: 6_000_000},
		{Phase: huffman, Insts: 4_000_000},
	}}
}

// GemsFDTD returns the gemsFDTD stand-in: finite-difference time-domain
// electromagnetics — FP stencil sweeps over a large grid alternating with
// memory-bound update phases.
func GemsFDTD() *App {
	sweep := Phase{
		Name:           "stencil-sweep",
		Mix:            [6]float64{0.16, 0.02, 0.26, 0.10, 0.30, 0.12},
		MeanBB:         11.0,
		TakenBias:      0.85,
		Predictability: 0, // derived
		DepProb1:       0.82, DepProb2: 0.45,
		DepDepth:    [5]float64{4, 5, 6, 6, 5},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 16,      // 4 MB grid
		ReuseFrac:   0.30, ReuseDepth: 400, StreamFrac: 0.80,
		CodeBlocks: 200, LoopBackProb: 0, // derived
	}
	update := Phase{
		Name:           "field-update",
		Mix:            [6]float64{0.20, 0.02, 0.20, 0.06, 0.34, 0.14},
		MeanBB:         9.0,
		TakenBias:      0.80,
		Predictability: 0, // derived
		DepProb1:       0.80, DepProb2: 0.40,
		DepDepth:    [5]float64{3, 4, 4, 4, 2.2},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 16,
		ReuseFrac:   0.30, ReuseDepth: 600, StreamFrac: 0.65,
		CodeBlocks: 240, LoopBackProb: 0, // derived
	}
	return &App{Name: "gemsFDTD", Seed: 0x6E350004, Segments: []Segment{
		{Phase: sweep, Insts: 5_000_000},
		{Phase: update, Insts: 4_000_000},
	}}
}

// Hmmer returns the hmmer stand-in: profile hidden-Markov-model search —
// extremely regular integer code, small working set, highly predictable.
func Hmmer() *App {
	viterbi := Phase{
		Name:           "viterbi",
		Mix:            [6]float64{0.50, 0.04, 0.01, 0.00, 0.27, 0.09},
		MeanBB:         9.5,
		TakenBias:      0.75,
		Predictability: 0, // derived
		DepProb1:       0.90, DepProb2: 0.50,
		DepDepth:    [5]float64{3.5, 4.5, 6, 6, 4.0},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 11,      // 128 KB DP matrices
		ReuseFrac:   0.88, ReuseDepth: 45, StreamFrac: 0.12,
		CodeBlocks: 90, LoopBackProb: 0, // derived
	}
	postproc := Phase{
		Name:           "postprocess",
		Mix:            [6]float64{0.46, 0.03, 0.02, 0.01, 0.28, 0.10},
		MeanBB:         7.5,
		TakenBias:      0.65,
		Predictability: 0, // derived
		DepProb1:       0.85, DepProb2: 0.40,
		DepDepth:    [5]float64{2.6, 4, 5, 5, 2.8},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 11,
		ReuseFrac:   0.85, ReuseDepth: 50, StreamFrac: 0.15,
		CodeBlocks: 130, LoopBackProb: 0, // derived
	}
	return &App{Name: "hmmer", Seed: 0x43332005, Segments: []Segment{
		{Phase: viterbi, Insts: 7_000_000},
		{Phase: postproc, Insts: 3_000_000},
	}}
}

// Omnetpp returns the omnetpp stand-in: discrete-event network simulation —
// pointer-chasing through a large heap, frequent hard-to-predict branches.
func Omnetpp() *App {
	events := Phase{
		Name:           "event-loop",
		Mix:            [6]float64{0.36, 0.02, 0.01, 0.00, 0.33, 0.11},
		MeanBB:         5.0,
		TakenBias:      0.50,
		Predictability: 0, // derived
		DepProb1:       0.88, DepProb2: 0.35,
		DepDepth:    [5]float64{2.2, 4, 6, 6, 1.4},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 15,      // 2 MB heap
		ReuseFrac:   0.55, ReuseDepth: 350, StreamFrac: 0.05,
		CodeBlocks: 420, LoopBackProb: 0, // derived
	}
	queues := Phase{
		Name:           "queue-maint",
		Mix:            [6]float64{0.40, 0.02, 0.01, 0.00, 0.30, 0.12},
		MeanBB:         5.8,
		TakenBias:      0.54,
		Predictability: 0, // derived
		DepProb1:       0.86, DepProb2: 0.34,
		DepDepth:    [5]float64{2.5, 4, 6, 6, 1.8},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 13,
		ReuseFrac:   0.65, ReuseDepth: 150, StreamFrac: 0.06,
		CodeBlocks: 360, LoopBackProb: 0, // derived
	}
	return &App{Name: "omnetpp", Seed: 0x03E77006, Segments: []Segment{
		{Phase: events, Insts: 5_000_000},
		{Phase: queues, Insts: 3_000_000},
		{Phase: events, Insts: 4_000_000},
	}}
}

// Sjeng returns the sjeng stand-in: chess search — branch-rich integer code
// whose behavior sits squarely inside the envelope of the other integer
// applications (the paper's easiest extrapolation target).
func Sjeng() *App {
	search := Phase{
		Name:           "alpha-beta",
		Mix:            [6]float64{0.42, 0.03, 0.00, 0.00, 0.27, 0.10},
		MeanBB:         4.8,
		TakenBias:      0.52,
		Predictability: 0, // derived
		DepProb1:       0.86, DepProb2: 0.36,
		DepDepth:    [5]float64{2.4, 4, 6, 6, 2.0},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 11,      // hash tables
		ReuseFrac:   0.80, ReuseDepth: 80, StreamFrac: 0.05,
		CodeBlocks: 300, LoopBackProb: 0, // derived
	}
	eval := Phase{
		Name:           "evaluate",
		Mix:            [6]float64{0.48, 0.04, 0.00, 0.00, 0.24, 0.08},
		MeanBB:         5.6,
		TakenBias:      0.56,
		Predictability: 0, // derived
		DepProb1:       0.88, DepProb2: 0.38,
		DepDepth:    [5]float64{2.6, 4, 6, 6, 2.4},
		DepProducer: [5]float64{}, // derived from mix
		WSBlocks:    1 << 10,
		ReuseFrac:   0.85, ReuseDepth: 45, StreamFrac: 0.04,
		CodeBlocks: 250, LoopBackProb: 0, // derived
	}
	return &App{Name: "sjeng", Seed: 0x53E46007, Segments: []Segment{
		{Phase: search, Insts: 6_000_000},
		{Phase: eval, Insts: 4_000_000},
	}}
}

// SPEC2006 returns the seven applications of the paper's evaluation in a
// stable order.
func SPEC2006() []*App {
	return []*App{Astar(), Bwaves(), Bzip2(), GemsFDTD(), Hmmer(), Omnetpp(), Sjeng()}
}

// ByName returns the stand-in application with the given name, or an error.
func ByName(name string) (*App, error) {
	for _, a := range SPEC2006() {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("trace: unknown application %q", name)
}

// Opt identifies a compiler-optimization variant (Section 4.4: "we find the
// choice of back-end compiler optimizations affect performance by up to 60%;
// mean effect is 26%").
type Opt int

// Optimization levels.
const (
	OptBase Opt = iota // the level the base App models (-O2)
	OptO1              // weaker scheduling: shorter dependence distances, more instructions
	OptO3              // aggressive scheduling/unrolling: longer distances, bigger blocks
)

func (o Opt) String() string {
	switch o {
	case OptO1:
		return "O1"
	case OptO3:
		return "O3"
	default:
		return "O2"
	}
}

// WithOpt derives a compiler-optimization variant of app. The transform
// alters the dynamic instruction stream the way a back-end scheduler does:
// dependence distances, basic-block sizes (unrolling), and the ALU-overhead
// share of the mix all move, which in turn shifts both performance and the
// microarchitecture-independent profile.
func WithOpt(app *App, o Opt) *App {
	if o == OptBase {
		return app
	}
	out := &App{Name: fmt.Sprintf("%s-%s", app.Name, o), Seed: app.Seed ^ (0x0137 << uint(o))}
	depScale, bbScale, aluScale := 1.0, 1.0, 1.0
	switch o {
	case OptO1:
		depScale, bbScale, aluScale = 0.50, 0.75, 1.50
	case OptO3:
		depScale, bbScale, aluScale = 1.90, 1.50, 0.70
	}
	for _, seg := range app.Segments {
		p := seg.Phase
		for i := range p.DepDepth {
			p.DepDepth[i] *= depScale
		}
		p.MeanBB *= bbScale
		p.Mix[mixIntALU] *= aluScale
		if o == OptO3 {
			// Unrolling enlarges the hot code footprint and biases loops.
			p.CodeBlocks = p.CodeBlocks * 5 / 4
			pred := p.Predictability
			if pred == 0 {
				pred = derivePredictability(p) // the value the generator would derive
			}
			p.Predictability = clamp01(pred + 0.01)
		}
		out.Segments = append(out.Segments, Segment{Phase: p, Insts: seg.Insts})
	}
	return out
}

// Input identifies an input-data variant (new job inputs alter working sets,
// phase balance, and branch behavior without changing the code).
type Input int

// Input data sets.
const (
	InputBase Input = iota // the input the base App models
	InputV1
	InputV2
	InputV3
)

func (in Input) String() string {
	switch in {
	case InputV1:
		return "v1"
	case InputV2:
		return "v2"
	case InputV3:
		return "v3"
	default:
		return "v0"
	}
}

// WithInput derives an input-data variant of app: working sets scale, phase
// durations rebalance, and data-dependent branch bias shifts.
func WithInput(app *App, in Input) *App {
	if in == InputBase {
		return app
	}
	out := &App{Name: fmt.Sprintf("%s-%s", app.Name, in), Seed: app.Seed ^ (0xDA7A << uint(in))}
	wsScale, lenScale, biasShift := 1.0, 1.0, 0.0
	switch in {
	case InputV1:
		wsScale, lenScale, biasShift = 0.5, 0.8, -0.04
	case InputV2:
		wsScale, lenScale, biasShift = 2.0, 1.2, 0.03
	case InputV3:
		wsScale, lenScale, biasShift = 4.0, 1.0, 0.06
	}
	for i, seg := range app.Segments {
		p := seg.Phase
		p.WSBlocks = maxInt(int(float64(p.WSBlocks)*wsScale), 64)
		p.TakenBias = clamp01(p.TakenBias + biasShift)
		p.ReuseDepth *= wsScale
		n := int(float64(seg.Insts) * lenScale)
		if i%2 == 1 {
			// Rebalance: alternate segments move oppositely so the input
			// changes phase proportions, not just total length.
			n = int(float64(seg.Insts) * (2 - lenScale))
		}
		out.Segments = append(out.Segments, Segment{Phase: p, Insts: maxInt(n, 1_000_000)})
	}
	return out
}

// Variants returns the five software variants of Section 4.4 for app:
// -O1, -O3, -v1, -v2, -v3.
func Variants(app *App) []*App {
	return []*App{
		WithOpt(app, OptO1),
		WithOpt(app, OptO3),
		WithInput(app, InputV1),
		WithInput(app, InputV2),
		WithInput(app, InputV3),
	}
}
