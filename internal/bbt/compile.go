package bbt

import (
	"math"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// compile translates the basic block starting at pc into the
// direct-mapped slot for pc. Blocks are only built inside the declared
// text region (the same restriction as the predecode cache: a corrupted
// PC can point anywhere, and data pages have no invalidation tracking)
// and end at the first branch (included, as the terminator), or just
// before a PAL, illegal or otherwise untranslatable instruction
// (excluded; the interpreter owns FI activation, syscalls and traps on
// decode). A PC whose first instruction is untranslatable is poisoned so
// the dispatcher stops probing it. The block records every register its
// instructions' ports touch, for the dispatcher's watch-mask check.
func (t *Translator) compile(pc, gen uint64) {
	slot := &t.blocks[(pc>>2)&blockMask]
	lo, hi := t.mem.TextRegion()
	if pc < lo || pc >= hi || pc%4 != 0 {
		*slot = block{tag: pc | tagValid, gen: gen}
		t.Stats.Poisoned++
		return
	}
	b := block{tag: pc | tagValid, gen: gen}
	ports := t.ports[(pc>>2)&blockMask][:0]
	cur := pc
	terminal := false
	for !terminal && uint64(len(b.ops)) < maxBlockLen && cur < hi {
		word, err := t.mem.Read32(cur)
		if err != nil {
			break
		}
		in := isa.Decode(isa.Word(word))
		var op opFn
		if op, terminal = t.emit(in, cur); op == nil {
			break
		}
		b.ops = append(b.ops, op)
		p := in.Ports()
		ports = append(ports, p)
		useInt, useFP := p.Masks()
		b.useInt |= useInt
		b.useFP |= useFP
		cur += 4
	}
	b.n = uint64(len(b.ops))
	t.ports[(pc>>2)&blockMask] = ports
	if b.n == 0 {
		*slot = b
		t.Stats.Poisoned++
		return
	}
	if !terminal {
		// Fallthrough block: no branch terminator, so completing it
		// resumes the interpreter at cur (a PAL instruction, the region
		// edge, or the length cap).
		b.end = cur
	}
	*slot = b
	t.Stats.Compiled++
}

// nopOp is the translation of an instruction whose only architectural
// effect is a write to the zero register: nothing, beyond being counted.
func nopOp(*Translator) bool { return true }

// emit translates one decoded instruction at pc into a specialized
// closure, returning (nil, false) for untranslatable kinds and terminal
// = true for branches (which assign the next PC themselves). Operand
// routing replicates isa.Inst.Ports exactly; register reads index the
// architectural arrays directly, which is safe because R[31]/F[31] are
// pinned to zero by every writer (WriteReg/WriteFReg, including the
// fault engine's register mutations).
func (t *Translator) emit(in isa.Inst, pc uint64) (op opFn, terminal bool) {
	next := pc + 4
	raw := in.Raw
	switch in.Format {
	case isa.FormatMemory:
		base := int(in.Rb) & 31 // ports.SrcA: the address base
		reg := int(in.Ra) & 31  // load/JMP destination, store value source
		disp := uint64(int64(in.Disp))
		switch in.Kind {
		case isa.KindLDA:
			if reg == 31 {
				return nopOp, false
			}
			return func(t *Translator) bool {
				t.arch.R[reg] = t.arch.R[base] + disp
				return true
			}, false
		case isa.KindLDAH:
			d := disp << 16
			if reg == 31 {
				return nopOp, false
			}
			return func(t *Translator) bool {
				t.arch.R[reg] = t.arch.R[base] + d
				return true
			}, false
		case isa.KindLDQ:
			return func(t *Translator) bool {
				ea := t.arch.R[base] + disp
				if ea%8 != 0 {
					return t.trapAt(pc, &cpu.Trap{Kind: cpu.TrapUnaligned, PC: pc, Addr: ea, Word: raw})
				}
				v, err := t.mem.Read64(ea)
				if err != nil {
					return t.trapAt(pc, &cpu.Trap{Kind: cpu.TrapMemFault, PC: pc, Addr: ea, Word: raw})
				}
				if reg != 31 {
					t.arch.R[reg] = v
				}
				return true
			}, false
		case isa.KindLDBU:
			return func(t *Translator) bool {
				ea := t.arch.R[base] + disp
				v, err := t.mem.LoadByte(ea)
				if err != nil {
					return t.trapAt(pc, &cpu.Trap{Kind: cpu.TrapMemFault, PC: pc, Addr: ea, Word: raw})
				}
				if reg != 31 {
					t.arch.R[reg] = uint64(v)
				}
				return true
			}, false
		case isa.KindLDT:
			return func(t *Translator) bool {
				ea := t.arch.R[base] + disp
				if ea%8 != 0 {
					return t.trapAt(pc, &cpu.Trap{Kind: cpu.TrapUnaligned, PC: pc, Addr: ea, Word: raw})
				}
				v, err := t.mem.Read64(ea)
				if err != nil {
					return t.trapAt(pc, &cpu.Trap{Kind: cpu.TrapMemFault, PC: pc, Addr: ea, Word: raw})
				}
				if reg != 31 {
					t.arch.F[reg] = math.Float64frombits(v)
				}
				return true
			}, false
		case isa.KindSTQ:
			return func(t *Translator) bool {
				ea := t.arch.R[base] + disp
				if ea%8 != 0 {
					return t.trapAt(pc, &cpu.Trap{Kind: cpu.TrapUnaligned, PC: pc, Addr: ea, Word: raw})
				}
				if err := t.mem.Write64(ea, t.arch.R[reg]); err != nil {
					return t.trapAt(pc, &cpu.Trap{Kind: cpu.TrapMemFault, PC: pc, Addr: ea, Word: raw})
				}
				if t.mem.TextGen() != t.gen {
					return t.smcBail(next)
				}
				return true
			}, false
		case isa.KindSTB:
			return func(t *Translator) bool {
				ea := t.arch.R[base] + disp
				if err := t.mem.StoreByte(ea, byte(t.arch.R[reg])); err != nil {
					return t.trapAt(pc, &cpu.Trap{Kind: cpu.TrapMemFault, PC: pc, Addr: ea, Word: raw})
				}
				if t.mem.TextGen() != t.gen {
					return t.smcBail(next)
				}
				return true
			}, false
		case isa.KindSTT:
			return func(t *Translator) bool {
				ea := t.arch.R[base] + disp
				if ea%8 != 0 {
					return t.trapAt(pc, &cpu.Trap{Kind: cpu.TrapUnaligned, PC: pc, Addr: ea, Word: raw})
				}
				if err := t.mem.Write64(ea, math.Float64bits(t.arch.F[reg])); err != nil {
					return t.trapAt(pc, &cpu.Trap{Kind: cpu.TrapMemFault, PC: pc, Addr: ea, Word: raw})
				}
				if t.mem.TextGen() != t.gen {
					return t.smcBail(next)
				}
				return true
			}, false
		case isa.KindJMP:
			return func(t *Translator) bool {
				tgt := t.arch.R[base] &^ 3 // read before the link write: Ra may equal Rb
				if reg != 31 {
					t.arch.R[reg] = next
				}
				t.arch.PC = tgt
				return true
			}, true
		}
		return nil, false

	case isa.FormatBranch:
		reg := int(in.Ra) & 31
		target := next + uint64(int64(in.Disp))*4
		switch in.Kind {
		case isa.KindBR, isa.KindBSR:
			return func(t *Translator) bool {
				if reg != 31 {
					t.arch.R[reg] = next
				}
				t.arch.PC = target
				return true
			}, true
		case isa.KindBEQ:
			return condBranch(reg, next, target, func(s int64) bool { return s == 0 }), true
		case isa.KindBNE:
			return condBranch(reg, next, target, func(s int64) bool { return s != 0 }), true
		case isa.KindBLT:
			return condBranch(reg, next, target, func(s int64) bool { return s < 0 }), true
		case isa.KindBLE:
			return condBranch(reg, next, target, func(s int64) bool { return s <= 0 }), true
		case isa.KindBGE:
			return condBranch(reg, next, target, func(s int64) bool { return s >= 0 }), true
		case isa.KindBGT:
			return condBranch(reg, next, target, func(s int64) bool { return s > 0 }), true
		case isa.KindFBEQ:
			return func(t *Translator) bool {
				if t.arch.F[reg] == 0 {
					t.arch.PC = target
				} else {
					t.arch.PC = next
				}
				return true
			}, true
		case isa.KindFBNE:
			return func(t *Translator) bool {
				if t.arch.F[reg] != 0 {
					t.arch.PC = target
				} else {
					t.arch.PC = next
				}
				return true
			}, true
		}
		return nil, false

	case isa.FormatOperate:
		return t.emitOperate(in, pc), false

	case isa.FormatFP:
		return t.emitFP(in, pc), false
	}
	// PAL and anything undecodable stays with the interpreter.
	return nil, false
}

// condBranch builds a conditional-branch terminator over the signed
// value of register ra. The comparison closure is resolved per kind at
// translation time; ra == 31 reads the pinned zero.
func condBranch(ra int, next, target uint64, taken func(int64) bool) opFn {
	return func(t *Translator) bool {
		if taken(int64(t.arch.R[ra])) {
			t.arch.PC = target
		} else {
			t.arch.PC = next
		}
		return true
	}
}

// emitOperate translates an integer operate instruction. The b operand
// is resolved at translation time: a captured literal or a register
// read. Only DIVQ/REMQ can trap; every other kind with a zero-register
// destination collapses to a counted no-op.
func (t *Translator) emitOperate(in isa.Inst, pc uint64) opFn {
	ra := int(in.Ra) & 31
	rb := int(in.Rb) & 31
	rc := int(in.Rc) & 31
	raw := in.Raw

	if in.Kind == isa.KindDIVQ || in.Kind == isa.KindREMQ {
		rem := in.Kind == isa.KindREMQ
		bArg := func(t *Translator) int64 { return int64(t.arch.R[rb]) }
		if in.IsLit {
			lit := int64(uint64(in.Lit))
			bArg = func(*Translator) int64 { return lit }
		}
		return func(t *Translator) bool {
			a, b := int64(t.arch.R[ra]), bArg(t)
			if b == 0 {
				return t.trapAt(pc, &cpu.Trap{Kind: cpu.TrapArith, PC: pc, Word: raw})
			}
			var res uint64
			switch {
			case a == math.MinInt64 && b == -1:
				if !rem {
					res = uint64(a)
				}
			case rem:
				res = uint64(a % b)
			default:
				res = uint64(a / b)
			}
			if rc != 31 {
				t.arch.R[rc] = res
			}
			return true
		}
	}

	if rc == 31 {
		return nopOp
	}
	if in.IsLit {
		lit := uint64(in.Lit)
		switch in.Kind {
		case isa.KindADDQ:
			return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] + lit; return true }
		case isa.KindSUBQ:
			return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] - lit; return true }
		case isa.KindCMPEQ:
			return func(t *Translator) bool { t.arch.R[rc] = boolBit(t.arch.R[ra] == lit); return true }
		case isa.KindCMPLT:
			return func(t *Translator) bool { t.arch.R[rc] = boolBit(int64(t.arch.R[ra]) < int64(lit)); return true }
		case isa.KindCMPLE:
			return func(t *Translator) bool { t.arch.R[rc] = boolBit(int64(t.arch.R[ra]) <= int64(lit)); return true }
		case isa.KindCMPULT:
			return func(t *Translator) bool { t.arch.R[rc] = boolBit(t.arch.R[ra] < lit); return true }
		case isa.KindCMPULE:
			return func(t *Translator) bool { t.arch.R[rc] = boolBit(t.arch.R[ra] <= lit); return true }
		case isa.KindAND:
			return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] & lit; return true }
		case isa.KindBIC:
			return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] &^ lit; return true }
		case isa.KindBIS:
			return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] | lit; return true }
		case isa.KindORNOT:
			return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] | ^lit; return true }
		case isa.KindXOR:
			return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] ^ lit; return true }
		case isa.KindEQV:
			return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] ^ ^lit; return true }
		case isa.KindSLL:
			sh := lit & 63
			return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] << sh; return true }
		case isa.KindSRL:
			sh := lit & 63
			return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] >> sh; return true }
		case isa.KindSRA:
			sh := lit & 63
			return func(t *Translator) bool { t.arch.R[rc] = uint64(int64(t.arch.R[ra]) >> sh); return true }
		case isa.KindMULQ:
			return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] * lit; return true }
		}
		return nil
	}
	switch in.Kind {
	case isa.KindADDQ:
		return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] + t.arch.R[rb]; return true }
	case isa.KindSUBQ:
		return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] - t.arch.R[rb]; return true }
	case isa.KindCMPEQ:
		return func(t *Translator) bool { t.arch.R[rc] = boolBit(t.arch.R[ra] == t.arch.R[rb]); return true }
	case isa.KindCMPLT:
		return func(t *Translator) bool {
			t.arch.R[rc] = boolBit(int64(t.arch.R[ra]) < int64(t.arch.R[rb]))
			return true
		}
	case isa.KindCMPLE:
		return func(t *Translator) bool {
			t.arch.R[rc] = boolBit(int64(t.arch.R[ra]) <= int64(t.arch.R[rb]))
			return true
		}
	case isa.KindCMPULT:
		return func(t *Translator) bool { t.arch.R[rc] = boolBit(t.arch.R[ra] < t.arch.R[rb]); return true }
	case isa.KindCMPULE:
		return func(t *Translator) bool { t.arch.R[rc] = boolBit(t.arch.R[ra] <= t.arch.R[rb]); return true }
	case isa.KindAND:
		return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] & t.arch.R[rb]; return true }
	case isa.KindBIC:
		return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] &^ t.arch.R[rb]; return true }
	case isa.KindBIS:
		return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] | t.arch.R[rb]; return true }
	case isa.KindORNOT:
		return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] | ^t.arch.R[rb]; return true }
	case isa.KindXOR:
		return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] ^ t.arch.R[rb]; return true }
	case isa.KindEQV:
		return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] ^ ^t.arch.R[rb]; return true }
	case isa.KindSLL:
		return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] << (t.arch.R[rb] & 63); return true }
	case isa.KindSRL:
		return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] >> (t.arch.R[rb] & 63); return true }
	case isa.KindSRA:
		return func(t *Translator) bool {
			t.arch.R[rc] = uint64(int64(t.arch.R[ra]) >> (t.arch.R[rb] & 63))
			return true
		}
	case isa.KindMULQ:
		return func(t *Translator) bool { t.arch.R[rc] = t.arch.R[ra] * t.arch.R[rb]; return true }
	}
	return nil
}

// emitFP translates a floating-point operate instruction. None of these
// trap; the rarer conversion/special kinds route through cpu.Execute so
// their edge-case semantics (saturating CVTTQ, copysign) live in exactly
// one place.
func (t *Translator) emitFP(in isa.Inst, pc uint64) opFn {
	fa := int(in.Ra) & 31
	fb := int(in.Rb) & 31
	rc := int(in.Rc) & 31
	if rc == 31 {
		return nopOp
	}
	switch in.Kind {
	case isa.KindADDT:
		return func(t *Translator) bool { t.arch.F[rc] = t.arch.F[fa] + t.arch.F[fb]; return true }
	case isa.KindSUBT:
		return func(t *Translator) bool { t.arch.F[rc] = t.arch.F[fa] - t.arch.F[fb]; return true }
	case isa.KindMULT:
		return func(t *Translator) bool { t.arch.F[rc] = t.arch.F[fa] * t.arch.F[fb]; return true }
	case isa.KindDIVT:
		return func(t *Translator) bool { t.arch.F[rc] = t.arch.F[fa] / t.arch.F[fb]; return true }
	case isa.KindCMPTEQ:
		return func(t *Translator) bool { t.arch.F[rc] = boolFP(t.arch.F[fa] == t.arch.F[fb]); return true }
	case isa.KindCMPTLT:
		return func(t *Translator) bool { t.arch.F[rc] = boolFP(t.arch.F[fa] < t.arch.F[fb]); return true }
	case isa.KindCMPTLE:
		return func(t *Translator) bool { t.arch.F[rc] = boolFP(t.arch.F[fa] <= t.arch.F[fb]); return true }
	case isa.KindSQRTT, isa.KindCVTTQ, isa.KindCVTQT, isa.KindCPYS:
		return func(t *Translator) bool {
			var o cpu.ExecOut
			cpu.Execute(&in, 0, 0, t.arch.F[fa], t.arch.F[fb], pc, &o)
			t.arch.F[rc] = o.FpRes
			return true
		}
	}
	return nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// boolFP is Alpha's FP "true" encoding (2.0), matching cpu.Execute.
func boolFP(b bool) float64 {
	if b {
		return 2.0
	}
	return 0.0
}
