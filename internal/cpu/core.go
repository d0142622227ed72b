package cpu

import (
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Injector is the set of per-stage hook points the fault injection engine
// plugs into (Fig. 1 of the paper: the red components are the possible
// fault locations). A nil Injector on the Core disables fault injection
// entirely, which models the unmodified ("vanilla gem5") simulator used as
// the baseline in the paper's Fig. 7 overhead study.
//
// Hooks receive the dynamic sequence number of the instruction so the
// engine can later learn whether that instruction committed or was
// squashed (speculative execution in the pipelined model), plus the
// instruction's PC so injections can be attributed to guest code
// (per-PC outcome attribution in the profiler/campaign reports).
type Injector interface {
	// Enabled reports whether the currently running thread has activated
	// fault injection, i.e. whether its window is open. Under
	// DisableFastPath both models run every stage hook while it holds;
	// otherwise they ask FastPath at fetch instead. The commit epilogue
	// asks it for the commit hook of every instruction that is not
	// hookless, and of a PAL instruction after its dispatch, which may
	// just have opened or closed the window.
	Enabled() bool

	// FastPath returns the hookless budget: how many more events of
	// every stage (fetch, decode, execute, commit) may pass without any
	// stage hook before an armed fault could act. It is MaxUint64 while
	// the window is closed or the engine is quiescent (every armed fault
	// exhausted and nothing it struck in flight), the distance to the
	// nearest trigger while faults are armed and none has fired, and 0
	// otherwise. Both models ask it at fetch, and an instruction fetched
	// hookless stays hookless to commit: the atomic model needs a budget
	// of 1 for one instruction, a translated block one of its length, and
	// the pipelined model PipeSlack, which covers the instructions
	// already in flight. watchInt and watchFP are bit masks of registers
	// with outstanding taint; a hookless commit whose ports touch one
	// must still call OnRegRead/OnRegWrite exactly as the hooked commit
	// epilogue does. Both masks are zero unless the engine is quiescent
	// inside an open window.
	FastPath() (budget uint64, watchInt, watchFP uint32)
	// Retire accounts the stage events of hookless instructions: the
	// fetches, decodes and executes they took part in (squashed
	// wrong-path ones included) and their commits, counted exactly as
	// the stage hooks would have counted them. tick is the clock OnTick
	// would have delivered last, which Retire delivers in its place.
	// Only an open window's counters move, and never onto a trigger:
	// the budget FastPath gave kept every hookless event short of it.
	// The atomic model and translated blocks pass equal fetch, decode
	// and execute counts; the pipelined model retires each cycle's
	// tallies with the next cycle's tick.
	Retire(fetches, decodes, execs, commits, tick uint64)

	// OnFetch may corrupt the fetched instruction word.
	OnFetch(seq, pc uint64, word uint32) uint32
	// OnDecode may corrupt the register selection produced by decode.
	OnDecode(seq, pc uint64, ports isa.RegPorts) isa.RegPorts
	// OnExecute may corrupt the execute-stage output in place.
	OnExecute(seq, pc uint64, in isa.Inst, out *ExecOut)
	// OnMem may corrupt the value of a load (after reading) or a store
	// (before writing); bus reports whether the transaction crossed the
	// processor/memory interconnect (L1 miss), which is where
	// interconnect faults strike.
	OnMem(seq, pc uint64, load bool, addr uint64, val uint64, bus bool) uint64
	// OnCommit is called once per committed instruction. It advances the
	// per-thread instruction counter and applies pending register, special
	// register and PC faults by direct state mutation. It returns true if
	// it changed the PC (the pipeline must flush and redirect).
	OnCommit(seq, pc uint64, a *Arch) bool
	// OnSquash reports that a speculative instruction was squashed.
	OnSquash(seq uint64)
	// OnRegRead / OnRegWrite record committed register file traffic for
	// fault propagation tracking (non-propagated outcome detection).
	OnRegRead(fp bool, r isa.Reg)
	OnRegWrite(fp bool, r isa.Reg)
	// OnActivate handles the fi_activate_inst(id) pseudo-instruction.
	OnActivate(pcbb uint64, id int)
	// OnContextSwitch tells the engine the PCB base register changed.
	OnContextSwitch(pcbb uint64)
	// OnTick advances the engine's tick count (cycle-based fault timing).
	// The atomic slow path calls it once per step; the fast paths and the
	// pipelined model deliver the tick through Retire.
	OnTick(ticks uint64)
}

// Commit is one committed instruction as an Observer sees it: the
// decoded form, the (possibly fault-corrupted) register ports, the
// execute-stage output and the load value, with the tick clock and the
// architectural state at hand. It is delivered after writeback, with
// the architectural PC already advanced, and before PAL dispatch (so
// syscall argument registers still hold their values). The pointer is
// only valid for the duration of the call.
type Commit struct {
	Seq, PC uint64
	In      isa.Inst
	Ports   isa.RegPorts
	Out     *ExecOut
	LoadVal uint64
	Ticks   uint64
	Arch    *Arch
}

// Event is a microarchitectural event an Observer may count.
type Event uint8

// Events. The stall events each stand for one cycle in which the
// pipelined model committed nothing, charged to the oldest in-flight PC.
const (
	EventIMiss       Event = iota // L1I miss fetching pc
	EventDMiss                    // L1D miss by the load/store at pc
	EventMispredict               // branch mispredict resolved at pc
	EventStallFetch               // front end waiting on L1I / redirect
	EventStallMem                 // memory stage busy on a data access
	EventStallSquash              // refilling after a mispredict squash
	EventStallDrain               // serialization / pipeline drain
)

// Observer watches the committed instruction stream of a Core: the
// profiler, the taint tracker, the flight recorder and execution traces
// all attach through it (gem5's probe-point listener, one seam for every
// listener). Unlike Injector hooks, observers are not gated on the
// fault-injection window: propagated corruption and the final
// instructions before a crash lie past the window's close. With no
// observer attached the models pay one untaken branch per hook site.
// Observers ride the atomic model's fast path, but keep it off block
// translation unless they take whole blocks (BlockObserver), and keep
// the timing model on its slow path, whose fetch reports
// instruction-cache misses.
type Observer interface {
	// OnCommit is called once per committed instruction, in commit order.
	OnCommit(c *Commit)
	// OnSquash reports that a speculative instruction was squashed; it
	// never committed, and any provisional state keyed on seq must be
	// discarded.
	OnSquash(seq uint64)
	// OnEvent reports a microarchitectural event at pc.
	OnEvent(ev Event, pc uint64)
}

// BlockObserver is an Observer that also takes a translated block's
// commits at once, so that block translation stays on while every
// attached observer is one. OnBlock receives the register ports of the
// block's committed instructions, in commit order, and the architectural
// state after them. A block holds no PAL instruction and no context
// switch, and its instructions squash nothing and raise no event.
type BlockObserver interface {
	Observer
	OnBlock(ports []isa.RegPorts, a *Arch)
}

// blockObserved reports whether every attached observer, if any, takes
// whole translated blocks.
func (c *Core) blockObserved() bool {
	for _, o := range c.Observers {
		if _, ok := o.(BlockObserver); !ok {
			return false
		}
	}
	return true
}

// TraceFunc adapts a per-commit callback (the execution trace used for
// postmortem fault correlation and conformance hashing) to an Observer.
type TraceFunc func(pc uint64, in isa.Inst)

// OnCommit implements Observer.
func (f TraceFunc) OnCommit(c *Commit) { f(c.PC, c.In) }

// OnSquash implements Observer.
func (TraceFunc) OnSquash(uint64) {}

// OnEvent implements Observer.
func (TraceFunc) OnEvent(Event, uint64) {}

// Scheduler is consulted after every committed instruction; the kernel
// implements it to preempt the running thread. A context switch mutates
// core.Arch (including PCBB) and returns true, upon which the core
// notifies the injector and pipelined models flush.
type Scheduler interface {
	MaybeSwitch(c *Core) bool
}

// BatchScheduler extends Scheduler with batch accounting for block
// execution: SliceBudget reports how many commits the running thread is
// guaranteed before MaybeSwitch could preempt it, and ConsumeSlice
// charges a batch of commits in one call with the same arithmetic as n
// individual MaybeSwitch calls that all declined to switch. A block
// runner only admits a block whose length fits strictly inside the
// budget; a scheduler that cannot batch disables block execution.
type BatchScheduler interface {
	Scheduler
	SliceBudget() uint64
	ConsumeSlice(n uint64)
}

// BlockRunner executes translated basic blocks for the atomic model
// (internal/bbt implements it). Exec runs zero or more whole blocks
// starting at the architectural PC and reports whether any guest
// instruction was executed. It declines every block longer than what is
// left of the budget from Injector.FastPath, so no armed fault can come
// due inside a block, and every block whose registers intersect the
// watch masks, because their traffic must reach the register hooks.
// NoteFallback counts a slow-path step taken while a runner is
// attached, making live-fault and observer bailouts observable.
type BlockRunner interface {
	Exec(budget uint64, watchInt, watchFP uint32) bool
	NoteFallback()
}

// PalAction is what the PAL handler asks the core to do after a PAL
// instruction commits.
type PalAction int

// PAL actions.
const (
	PalContinue PalAction = iota + 1
	PalStop               // end the simulation (exit status in Core.ExitStatus)
)

// PalHandler executes PAL-format instructions that reach commit: the
// kernel implements syscalls and halt.
type PalHandler interface {
	HandlePal(c *Core, kind isa.Kind) (PalAction, error)
}

// Model is a CPU model: it advances the simulation by its natural
// granularity (one instruction for atomic/timing, one cycle for the
// pipelined model).
type Model interface {
	// Step advances the simulation. It returns false when the core has
	// stopped (program exit or trap); inspect Core.Trap / Core.ExitStatus.
	Step() bool
	// Drain runs the model until no speculative state is in flight
	// (pipelined models complete or squash in-flight instructions). Used
	// before switching CPU models mid-simulation.
	Drain()
	// ModelName identifies the model ("atomic", "timing", "pipelined").
	ModelName() string
}

// Core bundles the architectural state with its memory system, kernel and
// fault injection hooks. CPU models operate on a Core.
type Core struct {
	Name string // e.g. "system.cpu0" — matched against fault descriptions

	Arch  Arch
	Mem   *mem.Memory
	Hier  *mem.Hierarchy // nil: no cache timing (pure functional)
	FI    Injector       // nil: fault injection disabled (vanilla simulator)
	Pal   PalHandler
	Sched Scheduler // optional

	// OnCheckpoint is invoked when the guest executes fi_read_init_all()
	// (the paper's checkpoint-here pseudo-instruction). May be nil.
	OnCheckpoint func()

	// Observers receive the committed instruction stream, pipeline
	// squashes and microarchitectural events. The atomic model runs
	// translated blocks only while every one is a BlockObserver.
	Observers []Observer

	// BBT, when set, executes translated basic blocks on the atomic
	// model's fast path (gem5/QEMU-style block translation). It is only
	// consulted when the fast-path predicate already holds, so every
	// condition that forces the slow path also disables translation.
	BBT BlockRunner

	// DisableFastPath forces the models onto their fully-hooked slow
	// paths and bypasses the decoded-instruction caches. Used by
	// conformance tests as the reference configuration the fast paths
	// must match bit for bit.
	DisableFastPath bool

	Ticks uint64 // simulation ticks (cycles)
	Insts uint64 // committed instructions

	Stopped    bool
	ExitStatus int
	Trap       *Trap

	seq    uint64 // dynamic instruction sequence numbering
	dcache *isa.DecodeCache
	pred   *predecodeCache
	commit Commit      // what observers receive; a core field, so nothing escapes per commit
	tally  retireTally // hookless stage events not yet handed to Injector.Retire
}

// hookMode is how the fault engine watches one instruction, fixed when
// it is fetched.
type hookMode uint8

const (
	// hooksOff: no stage hook and no register traffic; the commit hook
	// runs if the window is open by then. The slow paths, window closed.
	hooksOff hookMode = iota
	// hooksOn: every stage hook and all register traffic. The slow
	// paths, window open.
	hooksOn
	// hookless: no stage hook; the core tallies the stage events for
	// Injector.Retire, and register traffic is reported only for the
	// watched registers. FastPath held at fetch.
	hookless
)

// fiWatch is how the fault engine watches one instruction: its hook
// mode and, when hookless, the registers whose committed traffic the
// engine still needs (Injector.FastPath's watch masks at fetch).
type fiWatch struct {
	mode              hookMode
	watchInt, watchFP uint32
}

// retireTally counts the stage events of hookless instructions since
// the injector last heard of them.
type retireTally struct{ fetches, decodes, execs, commits uint64 }

// CoreSnapshot is the checkpointable part of a core: the architectural
// state and counters. Microarchitectural state (pipeline latches, branch
// predictor) is deliberately excluded — checkpoints are taken at
// serialization points where the pipeline is drained, exactly like the
// paper's checkpoint-at-fi_read_init_all flow.
type CoreSnapshot struct {
	Arch       Arch
	Ticks      uint64
	Insts      uint64
	Seq        uint64
	ExitStatus int
}

// Snapshot captures the core's architectural state.
func (c *Core) Snapshot() CoreSnapshot {
	return CoreSnapshot{Arch: c.Arch, Ticks: c.Ticks, Insts: c.Insts, Seq: c.seq, ExitStatus: c.ExitStatus}
}

// RestoreSnapshot replaces the core's architectural state and clears any
// stop/trap condition.
func (c *Core) RestoreSnapshot(s CoreSnapshot) {
	c.Arch = s.Arch
	c.Ticks = s.Ticks
	c.Insts = s.Insts
	c.seq = s.Seq
	c.ExitStatus = s.ExitStatus
	c.Stopped = false
	c.Trap = nil
	c.tally = retireTally{}
}

// decode decodes an instruction word through the per-core word-keyed
// decoded-instruction cache (gem5's decode-cache idiom). The key is the
// raw word, so fetch-fault corruption is naturally safe: a flipped bit is
// a different key. DisableFastPath falls back to a cold decode.
func (c *Core) decode(w uint32) (isa.Inst, isa.RegPorts) {
	if c.DisableFastPath {
		in := isa.Decode(isa.Word(w))
		return in, in.Ports()
	}
	if c.dcache == nil {
		c.dcache = isa.NewDecodeCache()
	}
	return c.dcache.Decode(isa.Word(w))
}

// The per-PC predecode cache skips fetch and decode entirely for
// straight-line re-execution of text. Unlike the word-keyed cache it is
// keyed on the PC, so it must observe writes to the text section: every
// entry records the Memory text generation it was filled at, and any
// store overlapping the text region (guest stores, store-value faults
// landing in text, checkpoint restores) bumps the generation and thereby
// invalidates all entries at once. Entries are filled and consulted only
// while no fetch fault can strike (window closed, or a fast-path budget
// that keeps every fetch short of its trigger) — fetch faults are
// transient corruptions of a single fetch and must be neither served
// from nor captured into a PC-keyed cache.
const (
	predecodeBits     = 12 // 4096 direct-mapped entries
	predecodeMask     = 1<<predecodeBits - 1
	predecodeTagValid = uint64(1) << 63
)

type predecodeEntry struct {
	tag   uint64 // pc | predecodeTagValid
	gen   uint64 // mem.TextGen at fill time
	word  uint32
	in    isa.Inst
	ports isa.RegPorts
}

type predecodeCache struct {
	entries [1 << predecodeBits]predecodeEntry
}

// predecodeLookup returns the cached predecode for pc, or nil. Callers
// must only consult it when no fetch or decode fault can strike.
func (c *Core) predecodeLookup(pc uint64) *predecodeEntry {
	if c.pred == nil || c.DisableFastPath {
		return nil
	}
	e := &c.pred.entries[(pc>>2)&predecodeMask]
	if e.tag == pc|predecodeTagValid && e.gen == c.Mem.TextGen() {
		return e
	}
	return nil
}

// predecodeFill caches the decode of the instruction at pc. Only PCs
// inside the declared text region are cached: a corrupted PC can point
// anywhere, and data pages have no invalidation tracking.
func (c *Core) predecodeFill(pc uint64, word uint32, in isa.Inst, ports isa.RegPorts) {
	if c.DisableFastPath {
		return
	}
	lo, hi := c.Mem.TextRegion()
	if pc < lo || pc >= hi {
		return
	}
	if c.pred == nil {
		c.pred = new(predecodeCache)
	}
	e := &c.pred.entries[(pc>>2)&predecodeMask]
	*e = predecodeEntry{tag: pc | predecodeTagValid, gen: c.Mem.TextGen(), word: word, in: in, ports: ports}
}

// NextSeq allocates the next dynamic instruction sequence number.
func (c *Core) NextSeq() uint64 {
	c.seq++
	return c.seq
}

// BumpSeq advances the sequence counter by n in one call — the batch
// equivalent of n NextSeq allocations, used by translated-block commits.
func (c *Core) BumpSeq(n uint64) { c.seq += n }

// fiEnabled reports whether FI hooks should run for the current thread.
func (c *Core) fiEnabled() bool { return c.FI != nil && c.FI.Enabled() }

// PipeSlack is the smallest FastPath budget at which the pipelined
// model fetches an instruction hookless. The engine's counters lag the
// fetch. Each of the four latches ahead of the new instruction (ID, EX,
// MEM, WB) may still owe an event of a stage, and the cycle's events so
// far sit in the unretired tally, at most one per stage. So the new
// instruction's own event of any stage is at most the sixth that stage
// takes from the engine's count: five latches plus one cycle of
// tallies, which a budget of 6 keeps short of every trigger.
const PipeSlack = 6

// watchAtFetch decides how the fault engine watches the instruction
// about to be fetched by the pipelined model: hookless while the
// Injector.FastPath budget covers it and everything ahead of it in
// flight (PipeSlack), every hook otherwise. DisableFastPath keeps the
// reference behaviour, every hook while the window is open.
func (c *Core) watchAtFetch() fiWatch {
	if c.FI == nil {
		return fiWatch{}
	}
	if c.DisableFastPath {
		if c.FI.Enabled() {
			return fiWatch{mode: hooksOn}
		}
		return fiWatch{}
	}
	budget, watchInt, watchFP := c.FI.FastPath()
	if budget < PipeSlack {
		return fiWatch{mode: hooksOn}
	}
	return fiWatch{hookless, watchInt, watchFP}
}

// retire hands the injector the tallied hookless events with the
// current tick, which it delivers in place of OnTick.
func (c *Core) retire() {
	t := c.tally
	c.tally = retireTally{}
	c.FI.Retire(t.fetches, t.decodes, t.execs, t.commits, c.Ticks)
}

// FlushRetired hands the injector any hookless stage events the core
// has tallied but not yet reported. The pipelined model reports a
// cycle's events when the next cycle starts, so between steps the last
// cycle's are outstanding: anything that reads the injector's window
// counters between steps must flush first (the simulator's run loop
// does on every return). With nothing outstanding it does nothing, so
// the tick clock stays where the last step left it.
func (c *Core) FlushRetired() {
	if c.FI != nil && c.tally != (retireTally{}) {
		c.retire()
	}
}

// contextSwitched tells the injector the PCB base register changed,
// after handing it the hookless events that belong to the thread
// switched out.
func (c *Core) contextSwitched() {
	c.FlushRetired()
	c.FI.OnContextSwitch(c.Arch.PCBB)
}

// Stop halts the core with a trap; used by the models for architectural
// traps and by the kernel for fatal conditions (e.g. a corrupted PCB).
func (c *Core) Stop(t *Trap) {
	c.Trap = t
	c.Stopped = true
}

// stop is the internal alias of Stop.
func (c *Core) stop(t *Trap) { c.Stop(t) }

// readOperands reads the register operands for an instruction through the
// (possibly fault-corrupted) ports.
func (c *Core) readOperands(in isa.Inst, p isa.RegPorts) (a, b uint64, fa, fb float64) {
	if p.SrcAUsed {
		if p.SrcAFP {
			fa = c.Arch.ReadFReg(p.SrcA)
		} else {
			a = c.Arch.ReadReg(p.SrcA)
		}
	}
	if p.SrcBUsed {
		if p.SrcBFP {
			fb = c.Arch.ReadFReg(p.SrcB)
		} else {
			b = c.Arch.ReadReg(p.SrcB)
		}
	}
	// FP operate instructions carry both operands in the F file; integer
	// literal forms substitute the literal for operand B.
	if in.Format == isa.FormatFP {
		fa = c.Arch.ReadFReg(p.SrcA)
		fb = c.Arch.ReadFReg(p.SrcB)
	}
	if in.IsLit {
		b = uint64(in.Lit)
	}
	return a, b, fa, fb
}

// accessMem performs the memory stage of a load/store, applying cache
// timing (if configured) and the FI memory hook. It returns the loaded
// value (for loads) and the latency in ticks. pc is the requesting
// instruction's address, for injection and miss attribution.
func (c *Core) accessMem(seq, pc uint64, in *isa.Inst, o *ExecOut, fi bool) (loadVal uint64, latency uint64, trap *Trap) {
	size := 8
	if in.Kind == isa.KindLDBU || in.Kind == isa.KindSTB {
		size = 1
	}
	if size == 8 && o.EA%8 != 0 {
		return 0, 0, &Trap{Kind: TrapUnaligned, Addr: o.EA, Word: in.Raw}
	}
	// Without a cache model every access crosses the interconnect; with
	// one, only L1 misses do.
	bus := true
	if c.Hier != nil {
		var miss bool
		latency, miss = c.Hier.DataAccess(o.EA, in.Kind.IsStore())
		bus = miss
		if miss {
			c.observeEvent(EventDMiss, pc)
		}
	}
	if in.Kind.IsStore() {
		val := o.StoreVal
		if fi {
			val = c.FI.OnMem(seq, pc, false, o.EA, val, bus)
		}
		var err error
		if size == 1 {
			err = c.Mem.StoreByte(o.EA, byte(val))
		} else {
			err = c.Mem.Write64(o.EA, val)
		}
		if err != nil {
			return 0, latency, &Trap{Kind: TrapMemFault, Addr: o.EA, Word: in.Raw}
		}
		return 0, latency, nil
	}
	var (
		val uint64
		err error
	)
	if size == 1 {
		var b byte
		b, err = c.Mem.LoadByte(o.EA)
		val = uint64(b)
	} else {
		val, err = c.Mem.Read64(o.EA)
	}
	if err != nil {
		return 0, latency, &Trap{Kind: TrapMemFault, Addr: o.EA, Word: in.Raw}
	}
	if fi {
		val = c.FI.OnMem(seq, pc, true, o.EA, val, bus)
	}
	return val, latency, nil
}

// observeEvent delivers a microarchitectural event to every observer.
func (c *Core) observeEvent(ev Event, pc uint64) {
	for _, o := range c.Observers {
		o.OnEvent(ev, pc)
	}
}

// observeCommit delivers one committed instruction to every observer.
func (c *Core) observeCommit(seq, pc uint64, in *isa.Inst, ports *isa.RegPorts, out *ExecOut, loadVal uint64) {
	// Field by field: a composite literal would zero and copy a temporary
	// on every commit.
	cm := &c.commit
	cm.Seq, cm.PC, cm.In, cm.Ports = seq, pc, *in, *ports
	cm.Out, cm.LoadVal, cm.Ticks, cm.Arch = out, loadVal, c.Ticks, &c.Arch
	for _, o := range c.Observers {
		o.OnCommit(cm)
	}
}

// writeback writes the destination register of a completed instruction.
func (c *Core) writeback(in *isa.Inst, p *isa.RegPorts, o *ExecOut, loadVal uint64) {
	if !p.DstUsed {
		return
	}
	if p.DstFP {
		v := o.FpRes
		if in.Kind == isa.KindLDT {
			v = math.Float64frombits(loadVal)
		}
		c.Arch.WriteFReg(p.Dst, v)
		return
	}
	v := o.IntRes
	if in.Kind.IsLoad() {
		v = loadVal
	}
	c.Arch.WriteReg(p.Dst, v)
}

// regTraffic reports a committed instruction's register reads and write
// to the fault engine, in port order, for register-fault propagation.
func (c *Core) regTraffic(ports *isa.RegPorts) {
	if ports.SrcAUsed {
		c.FI.OnRegRead(ports.SrcAFP, ports.SrcA)
	}
	if ports.SrcBUsed {
		c.FI.OnRegRead(ports.SrcBFP, ports.SrcB)
	}
	if ports.DstUsed {
		c.FI.OnRegWrite(ports.DstFP, ports.Dst)
	}
}

// commitRedirect is the result of commitEpilogue: whether the front end
// must be redirected (kernel switch, PAL serialization, FI PC fault) and
// to where.
type commitRedirect struct {
	redirect bool
	target   uint64
	stopped  bool
}

// commitEpilogue runs the per-committed-instruction bookkeeping shared by
// all models: observers, FI commit hook and register-traffic
// notifications, PAL dispatch, scheduler preemption and context switch
// detection. w is how the engine watched the instruction since fetch: a
// hookless commit is tallied instead of hooked, unless it is a PAL
// instruction, whose dispatch may open or close the window. The
// architectural PC must already hold the sequentially-next instruction
// address (or branch target) before the call.
func (c *Core) commitEpilogue(seq, pc uint64, in *isa.Inst, ports *isa.RegPorts, out *ExecOut, loadVal uint64, w fiWatch) commitRedirect {
	// Observers see every commit, before PAL dispatch mutates syscall
	// argument registers and regardless of the FI window (a corrupted
	// value keeps flowing after fi_activate_inst closes it).
	if len(c.Observers) != 0 {
		c.observeCommit(seq, pc, in, ports, out, loadVal)
	}
	c.Insts++
	var red commitRedirect

	switch w.mode {
	case hooksOn:
		c.regTraffic(ports)
	case hookless:
		if w.watchInt|w.watchFP != 0 {
			if wi, wf := ports.Masks(); wi&w.watchInt|wf&w.watchFP != 0 {
				c.regTraffic(ports)
			}
		}
	}

	// PAL instructions: FI control, checkpointing, kernel services.
	pal := in.Format == isa.FormatPAL && in.Kind != isa.KindNop
	if pal {
		switch in.Kind {
		case isa.KindFIActivate:
			if c.FI != nil {
				c.FI.OnActivate(c.Arch.PCBB, int(int64(c.Arch.ReadReg(isa.RegA0))))
			}
		case isa.KindFIInit:
			if c.OnCheckpoint != nil {
				c.OnCheckpoint()
			}
		default:
			if c.Pal == nil {
				c.stop(&Trap{Kind: TrapIllegal, PC: c.Arch.PC, Word: in.Raw})
				red.stopped = true
				return red
			}
			pcbbBefore := c.Arch.PCBB
			action, err := c.Pal.HandlePal(c, in.Kind)
			if err != nil {
				c.stop(&Trap{Kind: TrapKernel, PC: c.Arch.PC, Word: in.Raw})
				red.stopped = true
				return red
			}
			if action == PalStop {
				c.Stopped = true
				red.stopped = true
				return red
			}
			if c.Arch.PCBB != pcbbBefore && c.FI != nil {
				c.contextSwitched()
			}
		}
		// All PAL instructions serialize the pipeline.
		red.redirect = true
		red.target = c.Arch.PC
	}

	// FI commit: count the instruction, apply register/PC/special faults.
	if w.mode == hookless && !pal {
		c.tally.commits++
	} else if c.FI != nil && c.FI.Enabled() {
		if c.FI.OnCommit(seq, pc, &c.Arch) {
			red.redirect = true
			red.target = c.Arch.PC
		}
	}

	// Preemptive scheduling: the kernel may switch threads here.
	if c.Sched != nil {
		pcbbBefore := c.Arch.PCBB
		if c.Sched.MaybeSwitch(c) {
			if c.Arch.PCBB != pcbbBefore && c.FI != nil {
				c.contextSwitched()
			}
			red.redirect = true
			red.target = c.Arch.PC
		}
		if c.Stopped {
			red.stopped = true
		}
	}
	return red
}
