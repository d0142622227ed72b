package campaign

// The trunk's last-read table. GemFI §IV.B.1 calls a register fault whose
// value is never read non-propagated, and ZOFI (PAPERS.md) prunes such
// fault sites from the golden run's def-use chains. Every CPU model
// commits the same instruction stream (the scheduler's quantum counts
// commits), so whether a flipped register is ever read again is already
// written in the atomic trunk's commit stream: if the golden run never
// reads the register after the struck commit, the child commits exactly
// the golden instructions with the flipped bits unread, and the verdict
// is non-propagated with the golden totals. A trigger walk then concludes
// such a member at its pause (walk.go) instead of running it.

import (
	"repro/internal/cpu"
	"repro/internal/isa"
)

// lastReads holds, per architectural register (the integer file, then
// the FP file), the key of the golden run's last read of it: the
// committed-instruction count (cpu.Core.Insts) just after the reading
// commit, 0 for none. It is immutable once the trunk is done and shared
// by every runner of a pool.
type lastReads [2 * isa.NumRegs]uint64

// slot indexes register r of the integer or FP file.
func slot(fp bool, r isa.Reg) int {
	if fp {
		return isa.NumRegs + int(r&31)
	}
	return int(r & 31)
}

// unreadAfter reports whether the golden run never reads register r of
// the integer or FP file after commit k.
func (l *lastReads) unreadAfter(fp bool, r isa.Reg, k uint64) bool {
	return l[slot(fp, r)] <= k
}

// lastReadRecorder builds a lastReads from a golden run's commit stream.
// It counts as reads what the fault engine's register traffic counts —
// committed reads through isa.Inst.Ports — and everything the kernel
// reads: a syscall's v0, a0 and a1, fi_activate_inst's a0, and every
// register of a thread switched out (the kernel saves them all into its
// PCB). A switch shows as a new PCB base at the next commit and is keyed
// there, which places it after the switching commit's own fault: only a
// PAL commit switches before its fault, and walks never decide a fault a
// PAL commit strikes.
type lastReadRecorder struct {
	last lastReads
	key  uint64 // committed instructions so far
	pcbb uint64 // PCB base of the running thread
}

// newLastReadRecorder starts recording at a simulator's current commit.
func newLastReadRecorder(c *cpu.Core) *lastReadRecorder {
	return &lastReadRecorder{key: c.Insts, pcbb: c.Arch.PCBB}
}

// OnCommit implements cpu.Observer.
func (d *lastReadRecorder) OnCommit(c *cpu.Commit) {
	d.OnBlock([]isa.RegPorts{c.Ports}, c.Arch)
	switch c.In.Kind {
	case isa.KindSyscall:
		d.last[isa.RegV0], d.last[isa.RegA0], d.last[isa.RegA1] = d.key, d.key, d.key
	case isa.KindFIActivate:
		d.last[isa.RegA0] = d.key
	}
}

// OnBlock implements cpu.BlockObserver, so that the trunk keeps running
// translated blocks while it records. A block holds no context switch,
// so one switches before its first commit if at all.
func (d *lastReadRecorder) OnBlock(ports []isa.RegPorts, a *cpu.Arch) {
	if a.PCBB != d.pcbb {
		d.pcbb = a.PCBB
		for i := range d.last {
			d.last[i] = d.key + 1
		}
	}
	k := d.key
	for i := range ports {
		k++
		p := &ports[i]
		if p.SrcAUsed {
			d.last[slot(p.SrcAFP, p.SrcA)] = k
		}
		if p.SrcBUsed {
			d.last[slot(p.SrcBFP, p.SrcB)] = k
		}
	}
	d.key = k
}

// OnSquash implements cpu.Observer; the atomic trunk never squashes.
func (*lastReadRecorder) OnSquash(uint64) {}

// OnEvent implements cpu.Observer.
func (*lastReadRecorder) OnEvent(cpu.Event, uint64) {}
