package isa

// Inst is a fully decoded instruction. Decode never fails: words that do
// not correspond to a defined operation decode with Kind == KindIllegal so
// that fault-corrupted instruction words flow through the pipeline and trap
// at execution, as on real hardware.
type Inst struct {
	Raw    Word
	Op     Opcode
	Format Format
	Kind   Kind

	Ra, Rb, Rc Reg // register fields as encoded (FP registers reuse these)

	Lit   uint8 // 8-bit literal when IsLit
	IsLit bool  // operate literal form (bit 12)

	Func uint16 // 7-bit integer or 11-bit FP function field
	Disp int32  // sign-extended 16-bit (memory) or 21-bit (branch) displacement
	Pal  uint32 // 26-bit PALcode function

	Hint int // memory-format jump hint (disp bits [15:14]); semantically inert
}

// field extracts bits [hi:lo] of w.
func field(w Word, hi, lo uint) uint32 {
	return (uint32(w) >> lo) & ((1 << (hi - lo + 1)) - 1)
}

// signExtend sign-extends the low n bits of v.
func signExtend(v uint32, n uint) int32 {
	shift := 32 - n
	return int32(v<<shift) >> shift
}

// Decode decodes a 32-bit instruction word.
func Decode(w Word) Inst {
	op := Opcode(field(w, 31, 26))
	in := Inst{Raw: w, Op: op, Format: FormatOf(op)}
	switch in.Format {
	case FormatMemory:
		in.Ra = Reg(field(w, 25, 21))
		in.Rb = Reg(field(w, 20, 16))
		in.Disp = signExtend(field(w, 15, 0), 16)
		in.Kind = memKind(op)
		if op == OpJMP {
			// Bits [15:14] are a branch-prediction hint; bits [13:0] are
			// unused. Neither affects semantics (paper Section IV.B:
			// "experiments affecting unused bits always resulted into
			// strict correct results").
			in.Hint = int(field(w, 15, 14))
		}
	case FormatBranch:
		in.Ra = Reg(field(w, 25, 21))
		in.Disp = signExtend(field(w, 20, 0), 21)
		in.Kind = branchKind(op)
	case FormatOperate:
		in.Ra = Reg(field(w, 25, 21))
		in.Rc = Reg(field(w, 4, 0))
		in.Func = uint16(field(w, 11, 5))
		if field(w, 12, 12) != 0 {
			in.IsLit = true
			in.Lit = uint8(field(w, 20, 13))
		} else {
			// Register form: bits [15:13] are SBZ and deliberately ignored.
			in.Rb = Reg(field(w, 20, 16))
		}
		in.Kind = operateKind(op, in.Func)
	case FormatFP:
		in.Ra = Reg(field(w, 25, 21))
		in.Rb = Reg(field(w, 20, 16))
		in.Rc = Reg(field(w, 4, 0))
		in.Func = uint16(field(w, 15, 5))
		in.Kind = fpKind(in.Func)
	case FormatPAL:
		in.Pal = uint32(field(w, 25, 0))
		in.Kind = palKind(in.Pal)
	default:
		in.Kind = KindIllegal
	}
	return in
}

func memKind(op Opcode) Kind {
	switch op {
	case OpLDA:
		return KindLDA
	case OpLDAH:
		return KindLDAH
	case OpLDBU:
		return KindLDBU
	case OpSTB:
		return KindSTB
	case OpJMP:
		return KindJMP
	case OpLDT:
		return KindLDT
	case OpSTT:
		return KindSTT
	case OpLDQ:
		return KindLDQ
	case OpSTQ:
		return KindSTQ
	}
	return KindIllegal
}

func branchKind(op Opcode) Kind {
	switch op {
	case OpBR:
		return KindBR
	case OpBSR:
		return KindBSR
	case OpBEQ:
		return KindBEQ
	case OpBNE:
		return KindBNE
	case OpBLT:
		return KindBLT
	case OpBLE:
		return KindBLE
	case OpBGE:
		return KindBGE
	case OpBGT:
		return KindBGT
	case OpFBEQ:
		return KindFBEQ
	case OpFBNE:
		return KindFBNE
	}
	return KindIllegal
}

func operateKind(op Opcode, fn uint16) Kind {
	switch op {
	case OpIntArith:
		switch fn {
		case FnADDQ:
			return KindADDQ
		case FnSUBQ:
			return KindSUBQ
		case FnCMPEQ:
			return KindCMPEQ
		case FnCMPLT:
			return KindCMPLT
		case FnCMPLE:
			return KindCMPLE
		case FnCMPULT:
			return KindCMPULT
		case FnCMPULE:
			return KindCMPULE
		}
	case OpIntLogic:
		switch fn {
		case FnAND:
			return KindAND
		case FnBIC:
			return KindBIC
		case FnBIS:
			return KindBIS
		case FnORNOT:
			return KindORNOT
		case FnXOR:
			return KindXOR
		case FnEQV:
			return KindEQV
		}
	case OpIntShift:
		switch fn {
		case FnSLL:
			return KindSLL
		case FnSRL:
			return KindSRL
		case FnSRA:
			return KindSRA
		}
	case OpIntMul:
		switch fn {
		case FnMULQ:
			return KindMULQ
		case FnDIVQ:
			return KindDIVQ
		case FnREMQ:
			return KindREMQ
		}
	}
	return KindIllegal
}

func fpKind(fn uint16) Kind {
	switch fn {
	case FnADDT:
		return KindADDT
	case FnSUBT:
		return KindSUBT
	case FnMULT:
		return KindMULT
	case FnDIVT:
		return KindDIVT
	case FnCMPTEQ:
		return KindCMPTEQ
	case FnCMPTLT:
		return KindCMPTLT
	case FnCMPTLE:
		return KindCMPTLE
	case FnSQRTT:
		return KindSQRTT
	case FnCVTTQ:
		return KindCVTTQ
	case FnCVTQT:
		return KindCVTQT
	case FnCPYS:
		return KindCPYS
	}
	return KindIllegal
}

func palKind(fn uint32) Kind {
	switch fn {
	case PalHalt:
		return KindHalt
	case PalCallSys:
		return KindSyscall
	case PalFIActivate:
		return KindFIActivate
	case PalFIInit:
		return KindFIInit
	case PalNop:
		return KindNop
	}
	return KindIllegal
}

// RegPorts describes which architectural registers an instruction reads
// and writes. It is the information the decode stage produces, and the
// structure GemFI's decode-stage faults corrupt ("the selection of
// read/write registers during the decoding stage").
type RegPorts struct {
	// SrcA and SrcB are source register indices; a value of ZeroReg with
	// the corresponding Used flag false means "no such operand".
	SrcA, SrcB Reg
	SrcAFP     bool
	SrcBFP     bool
	SrcAUsed   bool
	SrcBUsed   bool
	Dst        Reg
	DstFP      bool
	DstUsed    bool
}

// Masks returns the registers the ports read or write as bit masks over
// the integer and floating-point files (bit r set: register r).
func (p RegPorts) Masks() (intRegs, fpRegs uint32) {
	add := func(used, fp bool, r Reg) {
		switch {
		case !used:
		case fp:
			fpRegs |= 1 << (r & 31)
		default:
			intRegs |= 1 << (r & 31)
		}
	}
	add(p.SrcAUsed, p.SrcAFP, p.SrcA)
	add(p.SrcBUsed, p.SrcBFP, p.SrcB)
	add(p.DstUsed, p.DstFP, p.Dst)
	return intRegs, fpRegs
}

// Ports computes the register read/write ports of the instruction.
func (in Inst) Ports() RegPorts {
	var p RegPorts
	p.SrcA, p.SrcB, p.Dst = ZeroReg, ZeroReg, ZeroReg
	switch in.Format {
	case FormatMemory:
		switch in.Kind {
		case KindLDA, KindLDAH:
			p.SrcA, p.SrcAUsed = in.Rb, true
			p.Dst, p.DstUsed = in.Ra, true
		case KindLDBU, KindLDQ:
			p.SrcA, p.SrcAUsed = in.Rb, true
			p.Dst, p.DstUsed = in.Ra, true
		case KindLDT:
			p.SrcA, p.SrcAUsed = in.Rb, true
			p.Dst, p.DstUsed, p.DstFP = in.Ra, true, true
		case KindSTB, KindSTQ:
			p.SrcA, p.SrcAUsed = in.Rb, true
			p.SrcB, p.SrcBUsed = in.Ra, true
		case KindSTT:
			p.SrcA, p.SrcAUsed = in.Rb, true
			p.SrcB, p.SrcBUsed, p.SrcBFP = in.Ra, true, true
		case KindJMP:
			p.SrcA, p.SrcAUsed = in.Rb, true
			p.Dst, p.DstUsed = in.Ra, true
		}
	case FormatBranch:
		switch in.Kind {
		case KindBR, KindBSR:
			p.Dst, p.DstUsed = in.Ra, true
		case KindFBEQ, KindFBNE:
			p.SrcA, p.SrcAUsed, p.SrcAFP = in.Ra, true, true
		default:
			p.SrcA, p.SrcAUsed = in.Ra, true
		}
	case FormatOperate:
		p.SrcA, p.SrcAUsed = in.Ra, true
		if !in.IsLit {
			p.SrcB, p.SrcBUsed = in.Rb, true
		}
		p.Dst, p.DstUsed = in.Rc, true
	case FormatFP:
		p.SrcA, p.SrcAUsed, p.SrcAFP = in.Ra, true, true
		p.SrcB, p.SrcBUsed, p.SrcBFP = in.Rb, true, true
		p.Dst, p.DstUsed, p.DstFP = in.Rc, true, true
	case FormatPAL:
		// Syscalls read/write fixed registers; handled by the kernel.
	}
	return p
}
