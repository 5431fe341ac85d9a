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

// SliceStream is a materialized instruction trace with a read position.
// Its consumers (cpu.Simulator.Run, profile.Stream) take the unread
// instructions with Rest and walk them as a slice.
type SliceStream struct {
	Insts []Inst
	pos   int
}

// Rest returns the instructions not yet read and marks them read.
func (s *SliceStream) Rest() []Inst {
	rest := s.Insts[min(s.pos, len(s.Insts)):]
	s.pos = len(s.Insts)
	return rest
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Collect copies up to max of the stream's unread instructions into a new
// exact-size slice and marks them read. A max of 0 copies all of them.
func Collect(s *SliceStream, max int) []Inst {
	start, end := min(s.pos, len(s.Insts)), len(s.Insts)
	if max > 0 {
		end = min(end, start+max)
	}
	s.pos = end
	out := make([]Inst, end-start)
	copy(out, s.Insts[start:end])
	return out
}
