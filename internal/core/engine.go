package core

import (
	"math"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/taint"
)

// Stage indexes the engine's five internal fault queues — "the file is
// parsed at startup and each fault is inserted to one of five internal
// queues. Each queue corresponds to a different pipeline stage."
type Stage int

// Fault queues.
const (
	StageFetch Stage = iota
	StageDecode
	StageExec
	StageMem
	StageCommit // register, special register and PC faults apply at commit
	numStages
)

// stageOf maps a fault location to its queue. Interconnect faults share
// the memory queue (they fire on the subset of transactions that cross
// the bus); I/O faults live outside the pipeline and get the commit
// queue's timing but are matched in OnIO.
func stageOf(l Location) Stage {
	switch l {
	case LocFetch:
		return StageFetch
	case LocDecode:
		return StageDecode
	case LocExec:
		return StageExec
	case LocMem, LocBus:
		return StageMem
	default:
		return StageCommit
	}
}

// ThreadEnabledFault holds the per-thread state GemFI keeps for threads
// that have activated fault injection (the paper's class of the same
// name): the numeric id assigned at fi_activate_inst, the identifying PCB
// address, and the per-stage event counters used for fault timing.
type ThreadEnabledFault struct {
	ID  int
	PCB uint64

	// Per-stage dynamic event counts since activation. Fetch/decode/
	// exec counts include speculative (later squashed) events in the
	// pipelined model; Commits counts retired instructions. Memory faults
	// are timed by Execs.
	Fetches, Decodes, Execs, Commits uint64

	// TickStart anchors tick-based fault timing at activation time.
	TickStart uint64
}

// faultState is the runtime wrapper around one fault description.
type faultState struct {
	Fault
	idx       int   // position in the armed fault list (stable event key)
	src       int   // position in the parsed fault list (Faults)
	remaining int64 // occurrences left (<0: permanent)

	Fired       bool // corrupted at least one value
	FiredTick   uint64
	FiredCount  uint64 // stage counter value at first firing
	PC          uint64 // guest PC of the first instruction hit
	HavePC      bool   // PC recorded (distinguishes a real PC 0)
	Committed   bool   // an instruction it hit committed
	Squashed    bool   // an instruction it hit was squashed
	Propagated  bool   // register faults: corrupted value was read
	Overwritten bool   // register faults: overwritten before any read
	pending     int    // in-flight instructions this fault has hit
	Detail      string // postmortem info (affected instruction)

	// loadHit marks a corrupted load value whose consuming load has not
	// yet committed; the commit emits fault.first-load (the load itself
	// is the first consumption of a LocMem load-value fault).
	loadHit bool
}

// active reports whether the fault can still fire.
func (fs *faultState) active() bool {
	return fs.remaining != 0
}

// due is the one trigger comparison: a fault timed at when can act once
// its clock (the stage counter, or ticks since activation) reads now >=
// when. matches and the walk's look-ahead (StepsUntilDue) both use it, so
// they cannot drift apart.
func due(now, when uint64) bool { return now >= when }

// counter returns the thread's event count that times faults of the
// given stage, as the hooks pass it to matches: memory faults are timed
// by executed instructions, I/O faults (commit queue) by committed ones.
func (t *ThreadEnabledFault) counter(s Stage) uint64 {
	switch s {
	case StageFetch:
		return t.Fetches
	case StageDecode:
		return t.Decodes
	case StageExec, StageMem:
		return t.Execs
	default:
		return t.Commits
	}
}

// matches reports whether the fault fires for the given thread at the
// given stage-counter value and tick. Each firing consumes one
// occurrence (consume), so a fault with occurrences left keeps matching
// from When on.
func (fs *faultState) matches(t *ThreadEnabledFault, count, ticksNow uint64) bool {
	if !fs.active() || fs.ThreadID != t.ID {
		return false
	}
	now := count
	if fs.Base == TimeTick {
		now = ticksNow - t.TickStart
	}
	return due(now, fs.When)
}

// stepsUntil returns how many events a counter now at count can take
// while due(count+k, when) stays false: the look-ahead of one trigger.
// The fast path's budget and the walk's StepsUntilDue are both minima of
// it over the armed faults.
func stepsUntil(count, when uint64) uint64 {
	if due(count+1, when) {
		return 0
	}
	return when - count - 1
}

// consume burns one occurrence and records first-fire info.
func (fs *faultState) consume(count, tick uint64) {
	if !fs.Fired {
		fs.Fired = true
		fs.FiredTick = tick
		fs.FiredCount = count
	}
	if fs.remaining > 0 {
		fs.remaining--
	}
}

// Engine is the fault injection engine. It implements cpu.Injector.
type Engine struct {
	CPUName string

	// span, when non-nil (SetSpan), receives the fault lifecycle as span
	// events (armed -> injected -> committed/squashed -> first-read /
	// first-load / masked) on the enclosing run's timeline. Every
	// emission site is on a fault-firing path, never on the
	// per-instruction fast path, so a nil span is free. unannounced
	// marks faults armed while no span was attached: the next SetSpan
	// announces them.
	span        *obs.Span
	unannounced bool

	// Taint, when non-nil, receives injection marks for fault-propagation
	// tracking: pre-commit stage hits stay provisional until commit,
	// register faults taint the shadow register file directly. All
	// Tracker methods are nil-receiver safe.
	Taint *taint.Tracker

	faults []Fault // immutable, as parsed (re-armed by Reset)
	queues [numStages][]*faultState
	states []*faultState

	threads map[uint64]*ThreadEnabledFault
	current *ThreadEnabledFault // cached pointer for the running thread

	bySeq map[uint64][]*faultState // in-flight instruction -> faults applied

	taintInt [isa.NumRegs]*faultState
	taintFP  [isa.NumRegs]*faultState

	// memTaint maps addresses whose stored value a LocMem/LocBus store
	// fault corrupted to the fault, so the lifecycle chain can report the
	// first consuming load (fault.first-load) or a clean overwrite
	// (fault.masked, reason mem-overwritten) — the memory analogue of the
	// taintInt/taintFP register tracking.
	memTaint map[uint64]*faultState

	ticksNow uint64

	// Quiescence cache behind FastPath. quiet holds once every armed
	// fault is exhausted and nothing it struck is in flight or waiting in
	// memory; no fault can act again until the next rearm, so it only
	// ever turns on in OnCommit and off in rearm. watchInt/watchFP mirror
	// the non-nil entries of taintInt/taintFP: registers whose first
	// committed read or write still decides a fault's outcome.
	quiet             bool
	watchInt, watchFP uint32

	// Trigger horizon behind FastPath's budget while faults are armed:
	// hz[s] is the smallest When among the active instruction-timed
	// faults of queue s that name the running thread (MaxUint64: none).
	// All of hz is 0, forcing a zero budget, while a tick-timed fault is
	// armed for the running thread (ticks have no per-event bound) or,
	// after a refresh, while any fault has fired and the engine is not
	// yet quiescent. refreshHorizon recomputes it whenever the armed set
	// or the running thread changes. A firing needs no refresh: the
	// fired fault's When stays in hz and its counter has reached it, so
	// the budget is 0 from that event on.
	hz [numStages]uint64

	// WindowHook, when set, is called after a fault-injection window
	// opens (open=true) or closes (open=false). The simulator's
	// fast-forward mode uses the open edge to switch from the cheap
	// atomic prefix to the configured detailed model.
	WindowHook func(open bool)

	// Stats for the overhead study. Quiesced counts the slow-path commits
	// after which the engine turned quiescent with a window open, handing
	// the rest of the window to the fast path.
	Activations uint64
	HookCalls   uint64
	Injections  uint64
	Quiesced    uint64

	// windowCommits accumulates the committed-instruction counts of
	// deactivated ThreadEnabledFault windows; campaigns use it to sample
	// injection times uniformly over the fault-injection window.
	windowCommits uint64
}

var _ cpu.Injector = (*Engine)(nil)

// NewEngine builds an engine for the named CPU with the given fault list.
func NewEngine(cpuName string, faults []Fault) *Engine {
	e := &Engine{CPUName: cpuName}
	e.faults = append(e.faults, faults...)
	e.rearm()
	return e
}

// rearm rebuilds all runtime fault state from the parsed descriptions.
func (e *Engine) rearm() {
	e.states = e.states[:0]
	for i := range e.queues {
		e.queues[i] = e.queues[i][:0]
	}
	for i, f := range e.faults {
		if f.CPU != "" && e.CPUName != "" && f.CPU != e.CPUName {
			continue
		}
		fs := &faultState{Fault: f, idx: len(e.states), src: i, remaining: f.Occ}
		e.states = append(e.states, fs)
		s := stageOf(f.Loc)
		e.queues[s] = append(e.queues[s], fs)
		e.traceFault("fault.armed", fs, nil)
	}
	e.unannounced = e.span == nil
	e.threads = make(map[uint64]*ThreadEnabledFault)
	e.current = nil
	e.windowCommits = 0
	e.bySeq = make(map[uint64][]*faultState)
	e.taintInt = [isa.NumRegs]*faultState{}
	e.taintFP = [isa.NumRegs]*faultState{}
	e.memTaint = make(map[uint64]*faultState)
	e.quiet = false
	e.watchInt, e.watchFP = 0, 0
	e.refreshQuiet()
	e.refreshHorizon()
	e.Taint.Reset()
}

// refreshHorizon recomputes hz for the running thread.
func (e *Engine) refreshHorizon() {
	for s := range e.hz {
		e.hz[s] = math.MaxUint64
	}
	t := e.current
	if t == nil || e.quiet {
		return
	}
	for _, fs := range e.states {
		if fs.Fired {
			e.hz = [numStages]uint64{}
			return
		}
		if !fs.active() || fs.ThreadID != t.ID {
			continue
		}
		if fs.Base == TimeTick {
			e.hz = [numStages]uint64{}
			return
		}
		s := stageOf(fs.Loc)
		e.hz[s] = min(e.hz[s], fs.When)
	}
}

// refreshQuiet sets the quiescence flag once it holds: every armed fault
// exhausted, none with a struck instruction in flight or an uncommitted
// corrupted load, and no corrupted store waiting for its first load.
// Outstanding register taint does not count; the watch masks carry it.
func (e *Engine) refreshQuiet() {
	if len(e.bySeq) != 0 || len(e.memTaint) != 0 {
		return
	}
	for _, fs := range e.states {
		if fs.remaining != 0 || fs.pending > 0 || fs.loadHit {
			return
		}
	}
	e.quiet = true
}

// Reset implements the fi_read_init_all restore semantics: "upon
// restoring from the checkpoint, it resets all the internal information of
// GemFI, allowing the same checkpoint to be used as a starting point for
// multiple experiments".
func (e *Engine) Reset(faults []Fault) {
	e.faults = append(e.faults[:0], faults...)
	e.rearm()
}

// Faults returns the parsed fault descriptions the engine was armed with.
func (e *Engine) Faults() []Fault { return append([]Fault(nil), e.faults...) }

// Enabled implements cpu.Injector: the per-tick fast path is a nil check
// on the cached thread pointer (Fig. 2 of the paper).
func (e *Engine) Enabled() bool { return e.current != nil }

// FastPath implements cpu.Injector. The budget is unbounded while the
// window is closed or the engine is quiescent, and the watch masks then
// name the tainted registers whose traffic must still be reported.
// While faults are armed and none has fired, it is the running thread's
// distance to its trigger horizon: min over the stage queues of
// stepsUntil(counter, hz), so that many more events of every stage pass
// before any armed fault could act. It is zero once a fault has fired,
// until the engine quiesces, and while a tick-timed fault is armed for
// the running thread.
func (e *Engine) FastPath() (budget uint64, watchInt, watchFP uint32) {
	t := e.current
	switch {
	case t == nil:
		return math.MaxUint64, 0, 0
	case e.quiet:
		return math.MaxUint64, e.watchInt, e.watchFP
	}
	return min(stepsUntil(t.Fetches, e.hz[StageFetch]),
		stepsUntil(t.Decodes, e.hz[StageDecode]),
		stepsUntil(t.Execs, e.hz[StageExec]),
		stepsUntil(t.Execs, e.hz[StageMem]),
		stepsUntil(t.Commits, e.hz[StageCommit])), 0, 0
}

// Retire implements cpu.Injector: the stage counters the hooks would have
// advanced for hookless instructions, and the tick clock OnTick would
// have delivered.
func (e *Engine) Retire(fetches, decodes, execs, commits, tick uint64) {
	e.ticksNow = tick
	if t := e.current; t != nil {
		t.Fetches += fetches
		t.Decodes += decodes
		t.Execs += execs
		t.Commits += commits
	}
}

// OnActivate implements the fi_activate_inst toggle: first call for a PCB
// enables fault injection for that thread; the next call disables it and
// destroys the ThreadEnabledFault object.
func (e *Engine) OnActivate(pcbb uint64, id int) {
	if t, ok := e.threads[pcbb]; ok {
		delete(e.threads, pcbb)
		e.windowCommits += t.Commits
		if e.current == t {
			e.current = nil
		}
		e.refreshHorizon()
		if e.WindowHook != nil {
			e.WindowHook(false)
		}
		return
	}
	t := &ThreadEnabledFault{ID: id, PCB: pcbb, TickStart: e.ticksNow}
	e.threads[pcbb] = t
	e.current = t
	e.refreshHorizon()
	e.Activations++
	if e.WindowHook != nil {
		e.WindowHook(true)
	}
}

// OnContextSwitch implements cpu.Injector: re-resolve the cached pointer
// when the PCB base register changes.
func (e *Engine) OnContextSwitch(pcbb uint64) {
	e.current = e.threads[pcbb] // nil if the switched-in thread has FI off
	e.refreshHorizon()
}

// OnTick implements cpu.Injector.
func (e *Engine) OnTick(ticks uint64) { e.ticksNow = ticks }

// traceFault emits one fault-lifecycle event; a no-op without a span.
func (e *Engine) traceFault(name string, fs *faultState, extra map[string]any) {
	if e.span == nil {
		return
	}
	args := map[string]any{
		"fault": fs.Fault.String(),
		"loc":   fs.Loc.String(),
		"idx":   fs.idx,
	}
	if fs.Detail != "" {
		args["detail"] = fs.Detail
	}
	for k, v := range extra {
		args[k] = v
	}
	e.span.Event(name, e.ticksNow, args)
}

// SetSpan attaches the span that receives the fault lifecycle (nil
// detaches) and announces faults armed while no span was attached:
// NewEngine arms before the simulator can hand over a span.
func (e *Engine) SetSpan(sp *obs.Span) {
	e.span = sp
	if sp == nil || !e.unannounced {
		return
	}
	e.unannounced = false
	for _, fs := range e.states {
		e.traceFault("fault.armed", fs, nil)
	}
}

// RegisterMetrics exposes the engine's counters as pull-collectors.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.RegisterFunc("fi.activations", func() float64 { return float64(e.Activations) })
	r.RegisterFunc("fi.hook_calls", func() float64 { return float64(e.HookCalls) })
	r.RegisterFunc("fi.quiesced", func() float64 { return float64(e.Quiesced) })
	r.RegisterFunc("fi.injections", func() float64 { return float64(e.Injections) })
	r.RegisterFunc("fi.threads_active", func() float64 { return float64(len(e.threads)) })
	r.RegisterFunc("fi.faults_armed", func() float64 { return float64(len(e.states)) })
}

// recordHit associates a fired fault with an in-flight instruction and
// records the guest PC the injection struck (per-PC outcome
// attribution in campaign reports).
func (e *Engine) recordHit(seq, pc uint64, fs *faultState) {
	fs.pending++
	if !fs.HavePC {
		fs.PC, fs.HavePC = pc, true
	}
	e.bySeq[seq] = append(e.bySeq[seq], fs)
	e.Injections++
	e.Taint.MarkPendingInjection(seq, pc, fs.Fault.String())
	e.traceFault("fault.injected", fs, map[string]any{"seq": seq, "pc": pc})
}

// OnFetch implements cpu.Injector: corrupts the fetched instruction word
// (32 bits).
func (e *Engine) OnFetch(seq, pc uint64, word uint32) uint32 {
	t := e.current
	if t == nil {
		return word
	}
	e.HookCalls++
	t.Fetches++
	for _, fs := range e.queues[StageFetch] {
		if fs.matches(t, t.Fetches, e.ticksNow) {
			old := word
			word = uint32(fs.Corrupt(uint64(word), 32))
			fs.consume(t.Fetches, e.ticksNow)
			fs.Detail = "fetch " + isa.Decode(isa.Word(old)).String() + " -> " + isa.Decode(isa.Word(word)).String()
			e.recordHit(seq, pc, fs)
		}
	}
	return word
}

// OnDecode implements cpu.Injector: corrupts the register selection
// (5-bit indices) produced by the decode stage.
func (e *Engine) OnDecode(seq, pc uint64, ports isa.RegPorts) isa.RegPorts {
	t := e.current
	if t == nil {
		return ports
	}
	e.HookCalls++
	t.Decodes++
	for _, fs := range e.queues[StageDecode] {
		if fs.matches(t, t.Decodes, e.ticksNow) {
			switch fs.Reg {
			case 0:
				ports.SrcA = isa.Reg(fs.Corrupt(uint64(ports.SrcA), 5))
			case 1:
				ports.SrcB = isa.Reg(fs.Corrupt(uint64(ports.SrcB), 5))
			default:
				ports.Dst = isa.Reg(fs.Corrupt(uint64(ports.Dst), 5))
			}
			fs.consume(t.Decodes, e.ticksNow)
			fs.Detail = "decode register selection corrupted"
			e.recordHit(seq, pc, fs)
		}
	}
	return ports
}

// OnExecute implements cpu.Injector: corrupts the execute-stage output.
// For memory instructions this is the effective address being calculated;
// for branches the target; otherwise the integer or FP result.
func (e *Engine) OnExecute(seq, pc uint64, in isa.Inst, out *cpu.ExecOut) {
	t := e.current
	if t == nil {
		return
	}
	e.HookCalls++
	t.Execs++
	for _, fs := range e.queues[StageExec] {
		if fs.matches(t, t.Execs, e.ticksNow) {
			switch {
			case in.Kind.IsMem():
				out.EA = fs.Corrupt(out.EA, 64)
			case in.Kind.IsBranch():
				out.Target = fs.Corrupt(out.Target, 64)
			case in.Kind.IsFP():
				out.FpRes = math.Float64frombits(fs.Corrupt(math.Float64bits(out.FpRes), 64))
			default:
				out.IntRes = fs.Corrupt(out.IntRes, 64)
			}
			fs.consume(t.Execs, e.ticksNow)
			fs.Detail = "execute result of " + in.String()
			e.recordHit(seq, pc, fs)
		}
	}
}

// OnMem implements cpu.Injector: corrupts the value of a load (after the
// read) or a store (before the write). Fault timing follows the paper's
// "number of instructions already executed" semantics: a memory fault
// scheduled at instruction N fires at the first memory transaction at or
// after the Nth executed instruction (the Execs counter), since not every
// instruction touches memory.
func (e *Engine) OnMem(seq, pc uint64, load bool, addr uint64, val uint64, bus bool) uint64 {
	t := e.current
	if t == nil {
		return val
	}
	e.HookCalls++
	// Resolve earlier store-value corruptions: the first load of a
	// corrupted address is the fault's first consumption, a clean store
	// over it masks the fault before any use.
	if len(e.memTaint) > 0 {
		if fs, ok := e.memTaint[addr]; ok {
			delete(e.memTaint, addr)
			if load {
				fs.Propagated = true
				e.traceFault("fault.first-load", fs, map[string]any{"addr": addr, "via": "memory"})
			} else if !fs.Propagated {
				fs.Overwritten = true
				e.traceFault("fault.masked", fs, map[string]any{"reason": "mem-overwritten", "addr": addr})
			}
		}
	}
	for _, fs := range e.queues[StageMem] {
		if fs.Loc == LocBus && !bus {
			continue // interconnect faults only hit off-chip transactions
		}
		if fs.matches(t, t.Execs, e.ticksNow) {
			val = fs.Corrupt(val, 64)
			switch {
			case fs.Loc == LocBus && load:
				fs.Detail = "interconnect transaction"
				fs.loadHit = true
			case fs.Loc == LocBus:
				fs.Detail = "interconnect transaction"
				e.memTaint[addr] = fs
			case load:
				fs.Detail = "memory load value"
				fs.loadHit = true
			default:
				fs.Detail = "memory store value"
				e.memTaint[addr] = fs
			}
			fs.consume(t.Execs, e.ticksNow)
			e.recordHit(seq, pc, fs)
		}
	}
	return val
}

// OnIO corrupts a byte on its way to an external I/O device (the
// console), implementing the paper's Section VII "fault injection ...
// on external I/O devices" extension. Timing follows the committed
// instruction counter.
func (e *Engine) OnIO(b byte) byte {
	t := e.current
	if t == nil {
		return b
	}
	for _, fs := range e.queues[StageCommit] {
		if fs.Loc != LocIO {
			continue
		}
		if fs.matches(t, t.Commits, e.ticksNow) {
			b = byte(fs.Corrupt(uint64(b), 8))
			fs.consume(t.Commits, e.ticksNow)
			fs.Propagated = true // reached the device
			fs.Detail = "console output byte"
			e.Injections++
			e.Taint.MarkIOInjection(fs.Fault.String())
			e.traceFault("fault.injected", fs, map[string]any{"stage": "io"})
		}
	}
	return b
}

// OnCommit implements cpu.Injector: counts the retired instruction,
// resolves the commit-or-squash state of stage faults, and applies
// register / special register / PC faults by direct state mutation.
// Returns true if the architectural PC was changed.
func (e *Engine) OnCommit(seq, pc uint64, a *cpu.Arch) bool {
	if hits, ok := e.bySeq[seq]; ok {
		for _, fs := range hits {
			fs.pending--
			fs.Committed = true
			fs.Propagated = true // a corrupted instruction retired
			e.traceFault("fault.committed", fs, map[string]any{"seq": seq})
			if fs.loadHit {
				// The corrupted load value just retired: the load itself
				// is the first consumption of a load-value fault — the
				// memory analogue of fault.first-read.
				fs.loadHit = false
				e.traceFault("fault.first-load", fs, map[string]any{"seq": seq, "via": "load-value"})
			}
		}
		delete(e.bySeq, seq)
	}
	t := e.current
	if t == nil {
		return false
	}
	e.HookCalls++
	t.Commits++
	pcChanged := false
	for _, fs := range e.queues[StageCommit] {
		if !fs.matches(t, t.Commits, e.ticksNow) {
			continue
		}
		switch fs.Loc {
		case LocIO:
			continue // applied in OnIO, not at commit
		case LocIntReg:
			r := isa.Reg(fs.Reg & 31)
			a.WriteReg(r, fs.Corrupt(a.ReadReg(r), 64))
			if r != isa.ZeroReg {
				e.taintInt[r] = fs
				e.watchInt |= 1 << r
			}
			fs.Detail = "int register " + r.String()
			e.Taint.MarkRegInjection(false, r, pc, fs.Fault.String())
		case LocFloatReg:
			r := isa.Reg(fs.Reg & 31)
			bits := math.Float64bits(a.ReadFReg(r))
			a.WriteFReg(r, math.Float64frombits(fs.Corrupt(bits, 64)))
			if r != isa.ZeroReg {
				e.taintFP[r] = fs
				e.watchFP |= 1 << r
			}
			fs.Detail = "float register f" + itoa(fs.Reg&31)
			e.Taint.MarkRegInjection(true, r, pc, fs.Fault.String())
		case LocSpecialReg:
			a.PCBB = fs.Corrupt(a.PCBB, 64)
			fs.Propagated = true
			fs.Detail = "special register PCBB"
			e.Taint.MarkControlInjection(pc, fs.Fault.String())
		case LocPC:
			a.PC = fs.Corrupt(a.PC, 64)
			pcChanged = true
			fs.Propagated = true
			fs.Detail = "program counter"
			e.Taint.MarkControlInjection(pc, fs.Fault.String())
		}
		fs.consume(t.Commits, e.ticksNow)
		fs.Committed = true
		if !fs.HavePC {
			fs.PC, fs.HavePC = pc, true
		}
		e.Injections++
		e.traceFault("fault.injected", fs, map[string]any{"stage": "commit", "pc": pc})
	}
	if !e.quiet {
		if e.refreshQuiet(); e.quiet {
			e.Quiesced++
		}
	}
	return pcChanged
}

// OnSquash implements cpu.Injector: faults whose corrupted instruction
// was squashed never propagate (unless they also hit a committed one).
func (e *Engine) OnSquash(seq uint64) {
	hits, ok := e.bySeq[seq]
	if !ok {
		return
	}
	for _, fs := range hits {
		fs.pending--
		fs.Squashed = true
		fs.loadHit = false // the consuming load never committed
		e.traceFault("fault.squashed", fs, map[string]any{"seq": seq})
	}
	delete(e.bySeq, seq)
}

// OnRegRead implements cpu.Injector: a committed read of a tainted
// register means the fault propagated into the dataflow.
func (e *Engine) OnRegRead(fp bool, r isa.Reg) {
	if r >= isa.NumRegs {
		return
	}
	if fs := e.untaint(fp, r); fs != nil {
		fs.Propagated = true
		e.traceFault("fault.first-read", fs, map[string]any{"reg": r.String()})
	}
}

// untaint clears register r's taint entry and watch bit, returning the
// fault that tainted it (nil when r was clean).
func (e *Engine) untaint(fp bool, r isa.Reg) *faultState {
	taint, watch := &e.taintInt, &e.watchInt
	if fp {
		taint, watch = &e.taintFP, &e.watchFP
	}
	fs := taint[r]
	taint[r] = nil
	*watch &^= 1 << r
	return fs
}

// OnRegWrite implements cpu.Injector: overwriting a tainted register
// before any read makes the fault non-propagated ("the corrupted register
// was ... overwritten before the erroneous value was used").
func (e *Engine) OnRegWrite(fp bool, r isa.Reg) {
	if r >= isa.NumRegs {
		return
	}
	if fs := e.untaint(fp, r); fs != nil && !fs.Propagated {
		fs.Overwritten = true
		e.traceFault("fault.masked", fs, map[string]any{"reason": "overwritten", "reg": r.String()})
	}
}

// Resolved reports whether every fault has finished firing and has no
// in-flight corrupted instruction — the paper's switch-to-atomic point
// ("the simulation continues until the affected instruction commits or
// squashes"). Permanent faults never resolve.
func (e *Engine) Resolved() bool {
	for _, fs := range e.states {
		if fs.remaining != 0 || fs.pending > 0 {
			return false
		}
	}
	return true
}

// ThreadsActive returns how many threads currently have FI enabled.
func (e *Engine) ThreadsActive() int { return len(e.threads) }

// WindowCommits returns the total committed instructions executed inside
// completed fault-injection windows (between fi_activate_inst toggles),
// plus any still-open window. Campaigns sample injection times uniformly
// from [1, WindowCommits] of a golden run.
func (e *Engine) WindowCommits() uint64 {
	n := e.windowCommits
	for _, t := range e.threads {
		n += t.Commits
	}
	return n
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
