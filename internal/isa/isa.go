// Package isa defines the abstract instruction set shared by the synthetic
// workload generators (package trace), the microarchitecture-independent
// shard profiler (package profile), and the out-of-order timing simulator
// (package cpu).
//
// The class taxonomy mirrors Table 1 of the paper: control, floating-point
// ALU, floating-point multiply/divide, integer multiply/divide, integer ALU,
// and memory operations. Loads and stores are distinguished because the
// timing simulator treats them differently (loads stall consumers, stores
// drain through a store buffer), but both count as "memory" in profiles.
package isa

// Class identifies the functional class of an instruction.
type Class uint8

// Instruction classes. The order is load-bearing: profile and cpu index
// per-class arrays by these values.
const (
	IntALU Class = iota
	IntMulDiv
	FPALU
	FPMulDiv
	Load
	Store
	Branch // conditional or unconditional control transfer
	NumClasses
)

var classNames = [NumClasses]string{
	"IntALU", "IntMulDiv", "FPALU", "FPMulDiv", "Load", "Store", "Branch",
}

// String returns the class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "Unknown"
}

// IsMemory reports whether the class accesses data memory.
func (c Class) IsMemory() bool { return c == Load || c == Store }

// MaxDepDistance caps the producer→consumer distances carried by an
// instruction. Distances beyond the cap behave as "no dependence" — by then
// the producer has long retired on any Table 2 configuration.
const MaxDepDistance = 256

// Inst is one dynamic instruction. Instructions are generated in program
// order; dependence is expressed as backward distances in the dynamic
// stream, which is exactly the microarchitecture-independent ILP measure the
// paper profiles (x10–x12: "# of instructions between producer and its
// consumer").
type Inst struct {
	Addr     uint64 // data address for Load/Store (byte address)
	PC       uint64 // instruction address (byte address), for i-cache behavior
	BrID     uint32 // static branch identity, for branch prediction
	Dep1     int32  // distance to first operand's producer; 0 = none
	Dep2     int32  // distance to second operand's producer; 0 = none
	Class    Class
	Taken    bool // branch outcome (Branch only)
	BlockEnd bool // last instruction of its basic block
}

// Stream produces a dynamic instruction stream. Implementations must be
// deterministic for a given construction seed so traces can be replayed
// across architectures.
type Stream interface {
	// Next fills in the next instruction and reports whether one was
	// produced. The same *Inst may be reused between calls.
	Next(*Inst) bool
}

// SliceStream adapts a materialized instruction slice to the Stream
// interface. Consumers that know the concrete type (cpu.Simulator.Run,
// profile.Stream) take the unread instructions with Rest and walk the slice
// directly, with no interface call per instruction.
type SliceStream struct {
	Insts []Inst
	pos   int
}

// Rest returns the instructions not yet read and marks them read, leaving
// the stream where a Next loop to its end would.
func (s *SliceStream) Rest() []Inst {
	rest := s.Insts[min(s.pos, len(s.Insts)):]
	s.pos = len(s.Insts)
	return rest
}

// Next implements Stream.
func (s *SliceStream) Next(in *Inst) bool {
	if s.pos >= len(s.Insts) {
		return false
	}
	*in = s.Insts[s.pos]
	s.pos++
	return true
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Collect drains up to max instructions from a stream into a slice.
// A max of 0 collects everything. A positive max also presizes the slice to
// max instructions, so a stream of known length fills one allocation.
func Collect(st Stream, max int) []Inst {
	var out []Inst
	if max > 0 {
		out = make([]Inst, 0, max)
	}
	var in Inst
	for st.Next(&in) {
		out = append(out, in)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}
