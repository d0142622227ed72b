package campaign

// The trunk's def-use index. GemFI §IV.B.1 calls a register fault that is
// overwritten before it is read non-propagated, and ZOFI (PAPERS.md)
// prunes such fault sites from the golden run's def-use chains. On the
// atomic model a forked child is the golden run up to its trigger, so
// whether a register fault's value is ever observed is already written in
// the trunk's commit stream: if the register's next access after the
// struck commit is a write, or there is none, the run goes on exactly as
// the golden one and the verdict is non-propagated with the golden
// totals. A trigger walk then concludes such a member at its pause
// (walk.go) instead of running it.

import (
	"encoding/binary"
	"sort"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// defUse is the per-register access log of a golden run, keyed by
// committed-instruction count (cpu.Core.Insts just after the access's
// commit). Every register's log is a string of uvarints, one per access,
// each the key's delta from the previous access shifted left once, with
// the low bit set for a read; a mark every markEvery accesses lets a
// lookup start near its key. It is immutable once the trunk is done and
// shared by every runner of a pool.
type defUse struct {
	regs [2 * isa.NumRegs]regLog // integer registers, then floating-point
}

// markEvery is the access interval of a log's lookup marks.
const markEvery = 32

// regLog is one register's accesses in commit order.
type regLog struct {
	buf      []byte
	marks    []logMark
	n        int    // accesses logged
	last     uint64 // key of the last access
	lastRead bool   // the last access was a read
}

// logMark lets a lookup skip the accesses before off: all of them have
// keys <= base.
type logMark struct {
	base uint64
	off  uint32
}

// slot returns the log of register r of the integer or FP file.
func (x *defUse) slot(fp bool, r isa.Reg) *regLog {
	if fp {
		return &x.regs[isa.NumRegs+int(r&31)]
	}
	return &x.regs[r&31]
}

// add logs one access at key. An access after a read with the same key
// is dropped: no lookup can find it first.
func (l *regLog) add(key uint64, read bool) {
	if l.n > 0 && key == l.last && l.lastRead {
		return
	}
	if l.n%markEvery == 0 {
		l.marks = append(l.marks, logMark{base: l.last, off: uint32(len(l.buf))})
	}
	v := (key - l.last) << 1
	if read {
		v |= 1
	}
	l.buf = binary.AppendUvarint(l.buf, v)
	l.last, l.lastRead = key, read
	l.n++
}

// next returns the first access to register r of the integer or FP file
// by a commit after commit k: its key and whether it reads. ok is false
// when the golden run never touches the register after k.
func (x *defUse) next(fp bool, r isa.Reg, k uint64) (at uint64, read, ok bool) {
	l := x.slot(fp, r)
	m := sort.Search(len(l.marks), func(i int) bool { return l.marks[i].base > k }) - 1
	if m < 0 {
		return 0, false, false // no mark at or below k: the log is empty
	}
	key, off := l.marks[m].base, int(l.marks[m].off)
	for off < len(l.buf) {
		v, n := binary.Uvarint(l.buf[off:])
		off += n
		key += v >> 1
		if key > k {
			return key, v&1 == 1, true
		}
	}
	return 0, false, false
}

// bytes returns the index's size, logs plus marks; 0 without an index.
func (x *defUse) bytes() uint64 {
	if x == nil {
		return 0
	}
	var n uint64
	for i := range x.regs {
		n += uint64(len(x.regs[i].buf)) + uint64(len(x.regs[i].marks))*16
	}
	return n
}

// defUseRecorder builds a defUse from a golden run's commit stream. It
// counts as reads what the fault engine's register traffic counts —
// committed reads through isa.Inst.Ports — and everything the kernel
// reads: a syscall's v0, a0 and a1, fi_activate_inst's a0, and every
// register of a thread switched out (the kernel saves them all into its
// PCB). Writes are committed writes through the ports only: the kernel's
// own writes never reach the engine either. A switch shows as a new PCB
// base at the next commit and is keyed there, which places it after the
// switching commit's own fault: only a PAL commit switches before its
// fault, and walks never decide a fault a PAL commit strikes.
type defUseRecorder struct {
	idx  defUse
	key  uint64 // committed instructions so far
	pcbb uint64 // PCB base of the running thread
}

// newDefUseRecorder starts recording at a simulator's current commit.
func newDefUseRecorder(c *cpu.Core) *defUseRecorder {
	return &defUseRecorder{key: c.Insts, pcbb: c.Arch.PCBB}
}

// OnCommit implements cpu.Observer.
func (d *defUseRecorder) OnCommit(c *cpu.Commit) {
	k := d.commit(&c.Ports, c.Arch)
	switch c.In.Kind {
	case isa.KindSyscall:
		for _, r := range []isa.Reg{isa.RegV0, isa.RegA0, isa.RegA1} {
			d.idx.slot(false, r).add(k, true)
		}
	case isa.KindFIActivate:
		d.idx.slot(false, isa.RegA0).add(k, true)
	}
	if p := &c.Ports; p.DstUsed {
		d.idx.slot(p.DstFP, p.Dst).add(k, false)
	}
}

// OnBlock implements cpu.BlockObserver, so that the trunk keeps running
// translated blocks while it records.
func (d *defUseRecorder) OnBlock(ports []isa.RegPorts, a *cpu.Arch) {
	for i := range ports {
		k := d.commit(&ports[i], a)
		if p := &ports[i]; p.DstUsed {
			d.idx.slot(p.DstFP, p.Dst).add(k, false)
		}
	}
}

// commit counts one committed instruction and logs what it reads through
// its ports, after the register saves of a switch that preceded it. It
// returns the commit's key.
func (d *defUseRecorder) commit(p *isa.RegPorts, a *cpu.Arch) uint64 {
	d.key++
	k, x := d.key, &d.idx
	if a.PCBB != d.pcbb {
		d.pcbb = a.PCBB
		for i := range x.regs {
			x.regs[i].add(k, true)
		}
	}
	if p.SrcAUsed {
		x.slot(p.SrcAFP, p.SrcA).add(k, true)
	}
	if p.SrcBUsed {
		x.slot(p.SrcBFP, p.SrcB).add(k, true)
	}
	return k
}

// OnSquash implements cpu.Observer; the atomic trunk never squashes.
func (*defUseRecorder) OnSquash(uint64) {}

// OnEvent implements cpu.Observer.
func (*defUseRecorder) OnEvent(cpu.Event, uint64) {}
