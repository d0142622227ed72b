// Package taint implements fault-propagation taint tracking: it marks the
// architectural bits corrupted by the fault injection engine and follows
// them through the committed instruction stream — register to register via
// the decode ports, register to memory and back at byte granularity
// through loads and stores, into control flow when a tainted value decides
// a branch, and out to I/O when a tainted byte reaches the console
// syscall. The result is a propagation DAG plus a terminal verdict that
// *explains* the campaign outcome classes (GemFI Section IV.B.1) instead
// of merely labelling them: a Non-Propagated run ends as masked-overwritten
// or masked-logically, an SDC shows a path from the injection node to an
// output or final-state node.
//
// The tracker attaches to a cpu.Core as one of its Observers and sees only
// committed (architectural) instructions, so it is exact on all three CPU
// models: speculative wrong-path work in the pipelined model never
// propagates taint, and the only speculative state — injection marks made
// by pre-commit engine hooks — is discarded on squash.
package taint

import (
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/obs"
)

// maxNodes bounds the propagation DAG; beyond it, new propagation sites
// collapse into a single overflow node (reported as TruncatedNodes).
const maxNodes = 4096

// nodeKey dedupes DAG nodes: one node per (PC, kind) propagation site, so
// loops grow hit counts instead of node counts.
type nodeKey struct {
	pc   uint64
	kind NodeKind
}

// pendingInj is an injection recorded by a pre-commit engine hook (fetch,
// decode, execute, memory stage). It stays provisional until the hit
// instruction commits; a squash discards it.
type pendingInj struct {
	pc    uint64
	label string
}

// Tracker is the shadow-state propagation tracker. The zero value is not
// usable; call New. All methods are safe on a nil receiver (disabled
// tracking), mirroring the repo's nil-guarded observability convention.
type Tracker struct {
	// Trace, when set, receives fault.prop.* lifecycle events.
	Trace *obs.Tracer
	// TickFn, when set, timestamps trace events with simulation ticks;
	// otherwise the committed-instruction index is used.
	TickFn func() uint64

	// Shadow register files: 0 = clean, otherwise node ID + 1 of the
	// propagation site that last defined the register.
	intT [isa.NumRegs]int32
	fpT  [isa.NumRegs]int32
	// Shadow memory, byte granular: tainted address -> node ID + 1.
	memT map[uint64]int32

	pending map[uint64]pendingInj // seq -> provisional injection

	nodes    []Node
	nodeIdx  map[nodeKey]int
	edges    map[[2]int32]uint64
	overflow int32 // overflow node ID + 1, once allocated

	liveRegs int // tainted registers (live memory taint is len(memT))
	everLive bool

	committed    uint64
	taintedInsts uint64
	injections   uint64
	squashedInj  uint64
	maxLive      int
	ctrlDiverg   uint64
	outputBytes  uint64

	firstLoad, firstStore, firstBranch, firstOutput int64
}

// New builds an empty tracker.
func New() *Tracker {
	t := &Tracker{}
	t.Reset()
	return t
}

// Reset clears all shadow state, the DAG and the counters; called when a
// checkpoint is restored so one tracker serves many experiments.
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	t.intT = [isa.NumRegs]int32{}
	t.fpT = [isa.NumRegs]int32{}
	t.memT = make(map[uint64]int32)
	t.pending = make(map[uint64]pendingInj)
	t.nodes = t.nodes[:0]
	t.nodeIdx = make(map[nodeKey]int)
	t.edges = make(map[[2]int32]uint64)
	t.overflow = 0
	t.liveRegs = 0
	t.everLive = false
	t.committed = 0
	t.taintedInsts = 0
	t.injections = 0
	t.squashedInj = 0
	t.maxLive = 0
	t.ctrlDiverg = 0
	t.outputBytes = 0
	t.firstLoad, t.firstStore, t.firstBranch, t.firstOutput = -1, -1, -1, -1
}

// Live returns the current live-taint width: tainted registers plus
// tainted memory bytes.
func (t *Tracker) Live() int {
	if t == nil {
		return 0
	}
	return t.liveRegs + len(t.memT)
}

// PendingInjections returns how many provisional (pre-commit) injection
// marks are outstanding; after a run completes it must be zero unless the
// program halted with a corrupted instruction still in flight.
func (t *Tracker) PendingInjections() int {
	if t == nil {
		return 0
	}
	return len(t.pending)
}

// Injections returns how many injections materialized (committed).
func (t *Tracker) Injections() uint64 {
	if t == nil {
		return 0
	}
	return t.injections
}

// now picks the event timestamp: ticks when wired, else committed insts.
func (t *Tracker) now() uint64 {
	if t.TickFn != nil {
		return t.TickFn()
	}
	return t.committed
}

// emit sends one fault.prop.* event; a no-op without a tracer.
func (t *Tracker) emit(name string, args map[string]any) {
	if t.Trace == nil {
		return
	}
	t.Trace.Instant(obs.CatTaint, name, t.now(), args)
}

// node interns the DAG node for a (pc, kind) propagation site and counts
// the hit. Returns the node ID.
func (t *Tracker) node(kind NodeKind, pc uint64, label string) int32 {
	key := nodeKey{pc: pc, kind: kind}
	if id, ok := t.nodeIdx[key]; ok {
		t.nodes[id].Hits++
		return int32(id)
	}
	if len(t.nodes) >= maxNodes {
		if t.overflow == 0 {
			t.nodes = append(t.nodes, Node{
				ID: len(t.nodes), Kind: NodeOverflow, Hits: 0,
				Label: "propagation sites beyond the node cap", FirstInst: t.committed,
			})
			t.overflow = int32(len(t.nodes)) // ID + 1
		}
		t.nodes[t.overflow-1].Hits++
		return t.overflow - 1
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, Node{
		ID: id, Kind: kind, PC: pc, Label: label, Hits: 1, FirstInst: t.committed,
	})
	t.nodeIdx[key] = id
	return int32(id)
}

// edge records (or re-counts) a DAG edge.
func (t *Tracker) edge(from, to int32) {
	if from == to {
		return
	}
	t.edges[[2]int32{from, to}]++
}

// setReg updates a shadow register (p = node ID + 1, 0 clears) and the
// live-register count. Writes to the architectural zero register are
// discarded by the CPU, so they never carry taint.
func (t *Tracker) setReg(fp bool, r isa.Reg, p int32) {
	if r >= isa.NumRegs || r == isa.ZeroReg {
		return
	}
	shadow := &t.intT
	if fp {
		shadow = &t.fpT
	}
	old := shadow[r]
	if (old == 0) == (p == 0) {
		shadow[r] = p
		return
	}
	shadow[r] = p
	if p != 0 {
		t.liveRegs++
	} else {
		t.liveRegs--
	}
}

// regTaint reads a shadow register (node ID + 1, 0 = clean).
func (t *Tracker) regTaint(fp bool, r isa.Reg) int32 {
	if r >= isa.NumRegs {
		return 0
	}
	if fp {
		return t.fpT[r]
	}
	return t.intT[r]
}

// setMem taints or clears one shadow memory byte.
func (t *Tracker) setMem(addr uint64, p int32) {
	if p == 0 {
		delete(t.memT, addr)
		return
	}
	t.memT[addr] = p
}

// touchLive refreshes maxLive and emits the extinction event when the
// last live tainted bit is cleared.
func (t *Tracker) touchLive() {
	live := t.liveRegs + len(t.memT)
	if live > t.maxLive {
		t.maxLive = live
	}
	if live > 0 {
		t.everLive = true
	} else if t.everLive {
		t.everLive = false
		t.emit("fault.prop.extinct", map[string]any{"inst": t.committed})
	}
}

// ---- engine-facing injection marks ----

// MarkPendingInjection records that a pre-commit stage hook (fetch,
// decode, execute, memory) corrupted the in-flight instruction seq. The
// mark materializes when seq commits and is discarded if seq squashes.
func (t *Tracker) MarkPendingInjection(seq, pc uint64, label string) {
	if t == nil {
		return
	}
	t.pending[seq] = pendingInj{pc: pc, label: label}
}

// MarkRegInjection records a register fault applied at commit: the
// register is tainted directly and propagation starts with the next
// instruction that reads it.
func (t *Tracker) MarkRegInjection(fp bool, r isa.Reg, pc uint64, label string) {
	if t == nil {
		return
	}
	id := t.node(NodeInject, pc, label)
	t.injections++
	t.setReg(fp, r, id+1)
	t.touchLive()
	t.emit("fault.prop.inject", map[string]any{"pc": pc, "fault": label, "node": id})
}

// MarkControlInjection records a fault applied directly to control state
// (PC or PCB base register): the divergence is architectural immediately,
// so an inject node feeds a control node with no data taint.
func (t *Tracker) MarkControlInjection(pc uint64, label string) {
	if t == nil {
		return
	}
	id := t.node(NodeInject, pc, label)
	t.injections++
	ctrl := t.node(NodeControl, pc, "control state corrupted")
	t.edge(id, ctrl)
	t.ctrlDiverg++
	if t.firstBranch < 0 {
		t.firstBranch = int64(t.committed)
	}
	t.emit("fault.prop.inject", map[string]any{"pc": pc, "fault": label, "node": id, "control": true})
}

// MarkIOInjection records a fault applied to a byte already on its way to
// an I/O device: injection and output provenance coincide.
func (t *Tracker) MarkIOInjection(label string) {
	if t == nil {
		return
	}
	id := t.node(NodeInject, 0, label)
	t.injections++
	out := t.node(NodeOutput, 0, "console byte corrupted in flight")
	t.edge(id, out)
	t.outputBytes++
	if t.firstOutput < 0 {
		t.firstOutput = int64(t.committed)
	}
	t.emit("fault.prop.inject", map[string]any{"fault": label, "node": id, "io": true})
}

// ---- cpu.Observer ----

// OnSquash implements cpu.Observer: provisional injection marks on a
// squashed speculative instruction are discarded, so wrong-path
// corruption leaves zero residual taint.
func (t *Tracker) OnSquash(seq uint64) {
	if t == nil || len(t.pending) == 0 {
		return
	}
	if _, ok := t.pending[seq]; ok {
		delete(t.pending, seq)
		t.squashedInj++
		t.emit("fault.prop.squashed", map[string]any{"seq": seq})
	}
}

// OnCommit implements cpu.Observer: propagate taint through one
// committed instruction. The fast path — no live taint, no pending
// injection — is a counter increment and three emptiness checks.
func (t *Tracker) OnCommit(c *cpu.Commit) {
	t.committed++
	if t.liveRegs == 0 && len(t.memT) == 0 && len(t.pending) == 0 {
		return
	}
	t.step(c.Seq, c.PC, c.In, c.Ports, c.Out, c.Arch)
}

// OnEvent implements cpu.Observer; microarchitectural events carry no
// dataflow.
func (t *Tracker) OnEvent(cpu.Event, uint64) {}

// step is the slow path of OnCommit: at least one tainted bit or
// pending injection exists somewhere in the machine.
func (t *Tracker) step(seq, pc uint64, in isa.Inst, ports isa.RegPorts, out *cpu.ExecOut, a *cpu.Arch) {
	// Collect the provenance of this instruction's tainted inputs.
	var parents [12]int32
	np := 0
	add := func(p int32) {
		if p == 0 {
			return
		}
		for i := 0; i < np; i++ {
			if parents[i] == p {
				return
			}
		}
		if np < len(parents) {
			parents[np] = p
			np++
		}
	}

	k := in.Kind
	if ports.SrcAUsed {
		add(t.regTaint(ports.SrcAFP, ports.SrcA))
	}
	if ports.SrcBUsed {
		add(t.regTaint(ports.SrcBFP, ports.SrcB))
	}
	if k.IsLoad() && len(t.memT) > 0 {
		for i := 0; i < k.MemSize(); i++ {
			add(t.memT[out.EA+uint64(i)])
		}
	}

	// Materialize a pending pre-commit injection: the corrupted
	// instruction retired, so its outputs are fault-derived.
	if inj, ok := t.pending[seq]; ok {
		delete(t.pending, seq)
		id := t.node(NodeInject, inj.pc, inj.label)
		t.injections++
		add(id + 1)
		t.emit("fault.prop.inject", map[string]any{"pc": inj.pc, "fault": inj.label, "node": id})
	}

	// Syscalls consume R0 (selector) and R16 (argument) — registers the
	// decode ports don't describe. A tainted byte reaching the console,
	// or a tainted exit status, is SDC provenance.
	if k == isa.KindSyscall {
		selT := t.intT[isa.RegV0]
		argT := t.intT[isa.RegA0]
		sel := a.ReadReg(isa.RegV0)
		if selT != 0 || (argT != 0 && (sel == isa.SysPutc || sel == isa.SysExit)) {
			id := t.node(NodeOutput, pc, "syscall "+outputLabel(sel))
			if selT != 0 {
				t.edge(selT-1, id)
			}
			if argT != 0 {
				t.edge(argT-1, id)
			}
			t.taintedInsts++
			t.outputBytes++
			if t.firstOutput < 0 {
				t.firstOutput = int64(t.committed)
				t.emit("fault.prop.first-output", map[string]any{"pc": pc, "inst": t.committed})
			}
		}
		return
	}

	if np == 0 {
		// Clean inputs: the write (if any) overwrites taint.
		t.clearOutputs(k, ports, out)
		t.touchLive()
		return
	}
	t.taintedInsts++

	switch {
	case k.IsStore():
		id := t.node(NodeStore, pc, in.String())
		for i := 0; i < np; i++ {
			t.edge(parents[i]-1, id)
		}
		for i := 0; i < k.MemSize(); i++ {
			t.setMem(out.EA+uint64(i), id+1)
		}
		if t.firstStore < 0 {
			t.firstStore = int64(t.committed)
			t.emit("fault.prop.first-store", map[string]any{"pc": pc, "addr": out.EA, "inst": t.committed})
		}

	case k.IsLoad():
		id := t.node(NodeLoad, pc, in.String())
		for i := 0; i < np; i++ {
			t.edge(parents[i]-1, id)
		}
		t.writeDst(ports, id+1)
		if t.firstLoad < 0 {
			t.firstLoad = int64(t.committed)
			t.emit("fault.prop.first-load", map[string]any{"pc": pc, "addr": out.EA, "inst": t.committed})
		}

	case k.IsBranch():
		// A tainted value decided (or addressed) control flow: record
		// the divergence point. The link register of a jump holds the
		// untainted return address, so data taint does not flow to it.
		id := t.node(NodeBranch, pc, in.String())
		for i := 0; i < np; i++ {
			t.edge(parents[i]-1, id)
		}
		t.ctrlDiverg++
		t.writeDst(ports, 0)
		if t.firstBranch < 0 {
			t.firstBranch = int64(t.committed)
			t.emit("fault.prop.first-branch", map[string]any{"pc": pc, "inst": t.committed})
		}

	default:
		id := t.node(NodeDef, pc, in.String())
		for i := 0; i < np; i++ {
			t.edge(parents[i]-1, id)
		}
		t.writeDst(ports, id+1)
	}
	t.touchLive()
}

// writeDst taints (or clears, p == 0) the destination register, if any.
func (t *Tracker) writeDst(ports isa.RegPorts, p int32) {
	if ports.DstUsed {
		t.setReg(ports.DstFP, ports.Dst, p)
	}
}

// clearOutputs handles a fully clean instruction: its register write or
// store overwrites whatever taint the destination held.
func (t *Tracker) clearOutputs(k isa.Kind, ports isa.RegPorts, out *cpu.ExecOut) {
	if k.IsStore() {
		if len(t.memT) > 0 {
			for i := 0; i < k.MemSize(); i++ {
				delete(t.memT, out.EA+uint64(i))
			}
		}
		return
	}
	t.writeDst(ports, 0)
}

// outputLabel names the observable effect of a tainted syscall.
func outputLabel(sel uint64) string {
	switch sel {
	case isa.SysPutc:
		return "putc"
	case isa.SysExit:
		return "exit status"
	default:
		return "selector"
	}
}

// RegisterMetrics exposes the tracker's counters as pull-collectors.
func (t *Tracker) RegisterMetrics(r *obs.Registry) {
	if t == nil || r == nil {
		return
	}
	r.RegisterFunc("taint.injections", func() float64 { return float64(t.injections) })
	r.RegisterFunc("taint.squashed_injections", func() float64 { return float64(t.squashedInj) })
	r.RegisterFunc("taint.tainted_insts", func() float64 { return float64(t.taintedInsts) })
	r.RegisterFunc("taint.live", func() float64 { return float64(t.Live()) })
	r.RegisterFunc("taint.max_live", func() float64 { return float64(t.maxLive) })
	r.RegisterFunc("taint.nodes", func() float64 { return float64(len(t.nodes)) })
	r.RegisterFunc("taint.control_divergences", func() float64 { return float64(t.ctrlDiverg) })
	r.RegisterFunc("taint.output_bytes", func() float64 { return float64(t.outputBytes) })
}
