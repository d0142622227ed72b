// Package cpu implements the simulated processor models: a functional
// 1-IPC "atomic" model, a "timing" model that adds cache/memory latencies,
// and a 5-stage pipelined model with a tournament branch predictor and
// speculative fetch (the stand-in for gem5's O3 model — see DESIGN.md for
// the substitution argument). All models share the same architectural
// state and execution semantics, and expose the same fault-injection hook
// points, so GemFI-style faults can be injected in both functional and
// cycle-accurate simulations exactly as the paper describes.
package cpu

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Arch is the architectural (software-visible) state of one core.
type Arch struct {
	R    [isa.NumRegs]uint64  // integer register file; R[31] pinned to zero
	F    [isa.NumRegs]float64 // floating point register file; F[31] pinned to 0.0
	PC   uint64               // address of the next instruction to execute
	PCBB uint64               // Process Control Block Base (special register)
}

// BitsEqual compares two architectural states bit for bit. A plain
// struct comparison treats a NaN float register as unequal to itself, so
// two machines in identical states would spuriously differ whenever the
// program computed a NaN; the FP register file must be compared as raw
// bits.
func (a *Arch) BitsEqual(b *Arch) bool {
	if a.PC != b.PC || a.PCBB != b.PCBB || a.R != b.R {
		return false
	}
	for i := range a.F {
		if math.Float64bits(a.F[i]) != math.Float64bits(b.F[i]) {
			return false
		}
	}
	return true
}

// ReadReg reads an integer register, honoring the zero register.
func (a *Arch) ReadReg(r isa.Reg) uint64 {
	if r == isa.ZeroReg {
		return 0
	}
	return a.R[r&31]
}

// WriteReg writes an integer register, discarding writes to the zero
// register.
func (a *Arch) WriteReg(r isa.Reg, v uint64) {
	if r != isa.ZeroReg {
		a.R[r&31] = v
	}
}

// ReadFReg reads a floating point register, honoring the zero register.
func (a *Arch) ReadFReg(r isa.Reg) float64 {
	if r == isa.ZeroReg {
		return 0
	}
	return a.F[r&31]
}

// WriteFReg writes a floating point register, discarding writes to the
// zero register.
func (a *Arch) WriteFReg(r isa.Reg, v float64) {
	if r != isa.ZeroReg {
		a.F[r&31] = v
	}
}

// TrapKind classifies the architectural traps a program can raise. Any
// trap terminates the run; the campaign layer classifies it as a crash.
type TrapKind int

// Trap kinds.
const (
	TrapNone TrapKind = iota
	TrapIllegal
	TrapMemFault
	TrapUnaligned
	TrapArith
	TrapFetchFault
	TrapKernel // kernel-detected fatal condition (e.g. corrupted PCB)
)

// String names the trap kind the way a Unix shell would.
func (k TrapKind) String() string {
	switch k {
	case TrapIllegal:
		return "illegal instruction"
	case TrapMemFault:
		return "segmentation fault"
	case TrapUnaligned:
		return "unaligned access"
	case TrapArith:
		return "arithmetic trap"
	case TrapFetchFault:
		return "instruction fetch fault"
	case TrapKernel:
		return "kernel panic"
	default:
		return "no trap"
	}
}

// Trap describes a fatal architectural event.
type Trap struct {
	Kind TrapKind
	PC   uint64
	Addr uint64 // faulting data address, if any
	Word isa.Word
}

// Error implements the error interface.
func (t *Trap) Error() string {
	return fmt.Sprintf("%v at pc=0x%x addr=0x%x", t.Kind, t.PC, t.Addr)
}

// ExecOut is the output of the execute stage for one instruction. The
// fault-injection execute hook corrupts exactly one of these fields
// depending on the instruction class (effective address for memory
// instructions, target for branches, result otherwise) — mirroring the
// paper's observation that execute-stage faults on memory instructions
// corrupt the virtual address being calculated.
type ExecOut struct {
	IntRes uint64  // integer result (also the link value for BR/BSR/JMP)
	FpRes  float64 // floating point result

	EA       uint64 // effective address for loads/stores
	StoreVal uint64 // raw bits to store (integer value or float64 bits)

	Taken  bool   // branch outcome
	Target uint64 // branch/jump target

	TrapKind TrapKind // TrapNone if the instruction executed cleanly
}

// Execute computes the pure (non-memory) semantics of one instruction
// into o, which it overwrites whole. a and b are the integer operand
// values (b already substituted with the literal for literal-form
// instructions); fa and fb are the FP operands; pc is the instruction's
// own address. The output is written in place, never returned by value:
// a returned record is stored field by field and then block-copied into
// the caller's, and the copy's wide loads stall on those narrow stores.
func Execute(in *isa.Inst, a, b uint64, fa, fb float64, pc uint64, o *ExecOut) {
	*o = ExecOut{}
	next := pc + 4
	switch in.Kind {
	case isa.KindLDA:
		o.IntRes = a + uint64(int64(in.Disp))
	case isa.KindLDAH:
		o.IntRes = a + uint64(int64(in.Disp))<<16
	case isa.KindLDBU, isa.KindLDQ, isa.KindLDT:
		o.EA = a + uint64(int64(in.Disp))
	case isa.KindSTB, isa.KindSTQ:
		o.EA = a + uint64(int64(in.Disp))
		o.StoreVal = b
	case isa.KindSTT:
		o.EA = a + uint64(int64(in.Disp))
		o.StoreVal = math.Float64bits(fb)
	case isa.KindJMP:
		o.Taken = true
		o.Target = a &^ 3
		o.IntRes = next
	case isa.KindBR, isa.KindBSR:
		o.Taken = true
		o.Target = next + uint64(int64(in.Disp))*4
		o.IntRes = next
	case isa.KindBEQ, isa.KindBNE, isa.KindBLT, isa.KindBLE, isa.KindBGE, isa.KindBGT:
		o.Target = next + uint64(int64(in.Disp))*4
		s := int64(a)
		switch in.Kind {
		case isa.KindBEQ:
			o.Taken = s == 0
		case isa.KindBNE:
			o.Taken = s != 0
		case isa.KindBLT:
			o.Taken = s < 0
		case isa.KindBLE:
			o.Taken = s <= 0
		case isa.KindBGE:
			o.Taken = s >= 0
		case isa.KindBGT:
			o.Taken = s > 0
		}
	case isa.KindFBEQ:
		o.Target = next + uint64(int64(in.Disp))*4
		o.Taken = fa == 0
	case isa.KindFBNE:
		o.Target = next + uint64(int64(in.Disp))*4
		o.Taken = fa != 0
	case isa.KindADDQ:
		o.IntRes = a + b
	case isa.KindSUBQ:
		o.IntRes = a - b
	case isa.KindCMPEQ:
		o.IntRes = boolBit(a == b)
	case isa.KindCMPLT:
		o.IntRes = boolBit(int64(a) < int64(b))
	case isa.KindCMPLE:
		o.IntRes = boolBit(int64(a) <= int64(b))
	case isa.KindCMPULT:
		o.IntRes = boolBit(a < b)
	case isa.KindCMPULE:
		o.IntRes = boolBit(a <= b)
	case isa.KindAND:
		o.IntRes = a & b
	case isa.KindBIC:
		o.IntRes = a &^ b
	case isa.KindBIS:
		o.IntRes = a | b
	case isa.KindORNOT:
		o.IntRes = a | ^b
	case isa.KindXOR:
		o.IntRes = a ^ b
	case isa.KindEQV:
		o.IntRes = a ^ ^b
	case isa.KindSLL:
		o.IntRes = a << (b & 63)
	case isa.KindSRL:
		o.IntRes = a >> (b & 63)
	case isa.KindSRA:
		o.IntRes = uint64(int64(a) >> (b & 63))
	case isa.KindMULQ:
		o.IntRes = a * b
	case isa.KindDIVQ:
		res, trap := divq(int64(a), int64(b), false)
		o.IntRes, o.TrapKind = res, trap
	case isa.KindREMQ:
		res, trap := divq(int64(a), int64(b), true)
		o.IntRes, o.TrapKind = res, trap
	case isa.KindADDT:
		o.FpRes = fa + fb
	case isa.KindSUBT:
		o.FpRes = fa - fb
	case isa.KindMULT:
		o.FpRes = fa * fb
	case isa.KindDIVT:
		o.FpRes = fa / fb // IEEE: +-Inf / NaN, no trap
	case isa.KindCMPTEQ:
		o.FpRes = boolFP(fa == fb)
	case isa.KindCMPTLT:
		o.FpRes = boolFP(fa < fb)
	case isa.KindCMPTLE:
		o.FpRes = boolFP(fa <= fb)
	case isa.KindSQRTT:
		o.FpRes = math.Sqrt(fb)
	case isa.KindCVTTQ:
		o.FpRes = math.Float64frombits(uint64(truncToInt64(fb)))
	case isa.KindCVTQT:
		o.FpRes = float64(int64(math.Float64bits(fb)))
	case isa.KindCPYS:
		o.FpRes = math.Copysign(fb, fa)
	case isa.KindHalt, isa.KindSyscall, isa.KindFIActivate, isa.KindFIInit, isa.KindNop:
		// PAL instructions execute at commit; nothing to compute here.
	default:
		o.TrapKind = TrapIllegal
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func boolFP(b bool) float64 {
	if b {
		return 2.0 // Alpha's FP "true" encoding
	}
	return 0.0
}

// divq implements DIVQ/REMQ with hardware-like edge behavior: divide by
// zero raises an arithmetic trap; INT64_MIN / -1 wraps (no trap).
func divq(a, b int64, rem bool) (uint64, TrapKind) {
	if b == 0 {
		return 0, TrapArith
	}
	if a == math.MinInt64 && b == -1 {
		if rem {
			return 0, TrapNone
		}
		return uint64(a), TrapNone
	}
	if rem {
		return uint64(a % b), TrapNone
	}
	return uint64(a / b), TrapNone
}

// truncToInt64 converts a float to int64 with saturating, defined behavior
// for NaN and out-of-range values (Go's conversion is implementation
// defined there).
func truncToInt64(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(f)
	}
}
