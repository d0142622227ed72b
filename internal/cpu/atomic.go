package cpu

import "repro/internal/isa"

// AtomicModel is the functional CPU model: one instruction per step, one
// tick per instruction (gem5's "atomic simple"). With Timing set it also
// charges cache/memory latencies to the tick counter (gem5's "timing
// simple").
type AtomicModel struct {
	C      *Core
	Timing bool

	out ExecOut // scratch execute-stage output (avoids per-step escapes)
}

var _ Model = (*AtomicModel)(nil)

// NewAtomic returns the functional model for core c.
func NewAtomic(c *Core) *AtomicModel { return &AtomicModel{C: c} }

// NewTiming returns the functional model with memory timing for core c.
func NewTiming(c *Core) *AtomicModel { return &AtomicModel{C: c, Timing: true} }

// ModelName implements Model.
func (m *AtomicModel) ModelName() string {
	if m.Timing {
		return "timing"
	}
	return "atomic"
}

// Drain implements Model; the atomic model holds no speculative state.
func (m *AtomicModel) Drain() {}

// Step executes one instruction to completion. When every per-step
// observer is inactive — no trace, no profiler, no taint sink, no
// flight recorder — and the fault engine reports that no fault can act
// (window closed, or engine quiescent: every fault exhausted and
// nothing in flight), it runs the specialized fast step, which elides
// all stage-hook dispatch. Registers with outstanding taint stay
// watched on the fast path, so their first committed read or write
// still reaches the engine. The two paths produce bit-identical
// architectural state and fault outcomes (enforced by the conformance
// suite); DisableFastPath pins the slow path for reference runs.
func (m *AtomicModel) Step() bool {
	c := m.C
	if c.TraceFn == nil && c.Prof == nil && c.Taint == nil && c.Flight == nil && !c.DisableFastPath {
		ok, watchInt, watchFP := true, uint32(0), uint32(0)
		if c.FI != nil {
			ok, watchInt, watchFP = c.FI.FastPath()
		}
		if ok {
			// Translated blocks run only under the same predicate that
			// admits stepFast, and never when cache timing matters (the
			// timing model charges per-access latencies a fused block
			// cannot reproduce).
			if c.BBT != nil && !m.Timing && c.BBT.Exec(watchInt, watchFP) {
				return !c.Stopped
			}
			return m.stepFast(watchInt, watchFP)
		}
	}
	if c.BBT != nil {
		c.BBT.NoteFallback()
	}
	return m.stepSlow()
}

// stepFast is Step with the stage hooks structurally removed: no FI
// stage hooks, no trace/profile/taint/flight dispatch, and the commit
// epilogue inlined down to the PAL and scheduler work that can still
// occur. One Injector.Retire call per instruction keeps an open window's
// stage counters and the engine tick clock exactly where the slow path's
// hooks would have left them (trunk fork points capture both, and
// fi_activate_inst anchors tick-relative faults on the clock). Register
// traffic is reported only for instructions touching a watched register.
func (m *AtomicModel) stepFast(watchInt, watchFP uint32) bool {
	c := m.C
	if c.Stopped {
		return false
	}
	pc := c.Arch.PC
	seq := c.NextSeq()
	c.Ticks++
	tickAtFetch := c.Ticks // what the slow path's OnTick would report

	// Fetch + decode, via the per-PC predecode cache when possible.
	var (
		in    isa.Inst
		ports isa.RegPorts
	)
	if e := c.predecodeLookup(pc); e != nil {
		in, ports = e.in, e.ports
		if m.Timing && c.Hier != nil {
			lat, _ := c.Hier.FetchAccess(pc)
			c.Ticks += lat - 1
		}
	} else {
		if pc%4 != 0 {
			m.retireUncommitted(0, tickAtFetch)
			c.stop(&Trap{Kind: TrapFetchFault, PC: pc})
			return false
		}
		word, err := c.Mem.Read32(pc)
		if err != nil {
			m.retireUncommitted(0, tickAtFetch)
			c.stop(&Trap{Kind: TrapFetchFault, PC: pc})
			return false
		}
		if m.Timing && c.Hier != nil {
			lat, _ := c.Hier.FetchAccess(pc)
			c.Ticks += lat - 1
		}
		in, ports = c.decode(word)
		c.predecodeFill(pc, word, in, ports)
	}

	// Execute.
	a, b, fa, fb := c.readOperands(in, ports)
	m.out = Execute(in, a, b, fa, fb, pc)
	out := &m.out
	if out.TrapKind != TrapNone {
		m.retireUncommitted(1, tickAtFetch)
		c.stop(&Trap{Kind: out.TrapKind, PC: pc, Word: in.Raw})
		return false
	}

	// Memory.
	var loadVal uint64
	if in.Kind.IsMem() {
		val, lat, trap := c.accessMem(seq, pc, in, out, false)
		if trap != nil {
			m.retireUncommitted(1, tickAtFetch)
			trap.PC = pc
			c.stop(trap)
			return false
		}
		if m.Timing {
			c.Ticks += lat
		}
		loadVal = val
	}

	// Writeback and next PC.
	c.writeback(in, ports, *out, loadVal)
	if in.Kind.IsBranch() && out.Taken {
		c.Arch.PC = out.Target
	} else {
		c.Arch.PC = pc + 4
	}

	// Commit epilogue, minus the hooks known inactive. PAL instructions
	// are rare; everything below the Insts++ is off the common path.
	c.Insts++
	if in.Format != isa.FormatPAL || in.Kind == isa.KindNop {
		if c.FI != nil {
			c.FI.Retire(1, 1, tickAtFetch)
			if watchInt|watchFP != 0 {
				if wi, wf := ports.Masks(); wi&watchInt|wf&watchFP != 0 {
					c.regTraffic(ports)
				}
			}
		}
	} else {
		// The PAL instruction's own fetch, decode and execute belong to
		// the window it was fetched in; its commit to the window (and
		// thread) left after dispatch, as in commitEpilogue.
		m.retireUncommitted(1, tickAtFetch)
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
				return false
			}
			pcbbBefore := c.Arch.PCBB
			action, err := c.Pal.HandlePal(c, in.Kind)
			if err != nil {
				c.stop(&Trap{Kind: TrapKernel, PC: c.Arch.PC, Word: in.Raw})
				return false
			}
			if action == PalStop {
				c.Stopped = true
				return false
			}
			if c.Arch.PCBB != pcbbBefore && c.FI != nil {
				c.FI.OnContextSwitch(c.Arch.PCBB)
			}
		}
		// fi_activate_inst may have just opened the window: the
		// activating instruction itself gets the commit hook, exactly as
		// in the slow path's epilogue ordering.
		if c.FI != nil && c.FI.Enabled() {
			c.FI.OnCommit(seq, pc, &c.Arch)
		}
	}
	if c.Sched != nil {
		pcbbBefore := c.Arch.PCBB
		if c.Sched.MaybeSwitch(c) {
			if c.Arch.PCBB != pcbbBefore && c.FI != nil {
				c.FI.OnContextSwitch(c.Arch.PCBB)
			}
		}
	}
	return !c.Stopped
}

// retireUncommitted accounts a fast-path instruction that has not
// committed: one that trapped at fetch (execs 0: the slow path stops
// before its fetch hook, but its OnTick already ran), one that trapped
// later, or a PAL instruction before its dispatch (execs 1).
func (m *AtomicModel) retireUncommitted(execs, tickAtFetch uint64) {
	if m.C.FI != nil {
		m.C.FI.Retire(execs, 0, tickAtFetch)
	}
}

// stepSlow executes one instruction with every hook point live.
func (m *AtomicModel) stepSlow() bool {
	c := m.C
	if c.Stopped {
		return false
	}
	pc := c.Arch.PC
	seq := c.NextSeq()
	c.Ticks++
	if c.FI != nil {
		c.FI.OnTick(c.Ticks)
	}

	// Fetch.
	fi := c.fiEnabled()
	var (
		in    isa.Inst
		ports isa.RegPorts
	)
	if e := c.predecodeLookup(pc); e != nil && !fi {
		// Predecode hit (only consulted outside the FI window: fetch and
		// decode faults must see the real fetch path).
		in, ports = e.in, e.ports
		if m.Timing && c.Hier != nil {
			lat, miss := c.Hier.FetchAccess(pc)
			c.Ticks += lat - 1
			if miss && c.Prof != nil {
				c.Prof.OnIMiss(pc)
			}
		}
	} else {
		if pc%4 != 0 {
			c.stop(&Trap{Kind: TrapFetchFault, PC: pc})
			return false
		}
		word, err := c.Mem.Read32(pc)
		if err != nil {
			c.stop(&Trap{Kind: TrapFetchFault, PC: pc})
			return false
		}
		if m.Timing && c.Hier != nil {
			lat, miss := c.Hier.FetchAccess(pc)
			c.Ticks += lat - 1
			if miss && c.Prof != nil {
				c.Prof.OnIMiss(pc)
			}
		}
		if fi {
			word = c.FI.OnFetch(seq, pc, word)
		}

		// Decode.
		in, ports = c.decode(word)
		if fi {
			ports = c.FI.OnDecode(seq, pc, ports)
		} else {
			c.predecodeFill(pc, word, in, ports)
		}
	}

	// Execute.
	a, b, fa, fb := c.readOperands(in, ports)
	m.out = Execute(in, a, b, fa, fb, pc)
	out := &m.out
	if fi {
		c.FI.OnExecute(seq, pc, in, out)
	}
	if out.TrapKind != TrapNone {
		c.stop(&Trap{Kind: out.TrapKind, PC: pc, Word: in.Raw})
		return false
	}

	// Memory.
	var loadVal uint64
	if in.Kind.IsMem() {
		val, lat, trap := c.accessMem(seq, pc, in, out, fi)
		if trap != nil {
			trap.PC = pc
			c.stop(trap)
			return false
		}
		if m.Timing {
			c.Ticks += lat
		}
		loadVal = val
	}

	// Writeback and next PC.
	c.writeback(in, ports, *out, loadVal)
	if in.Kind.IsBranch() && out.Taken {
		c.Arch.PC = out.Target
	} else {
		c.Arch.PC = pc + 4
	}

	if c.TraceFn != nil {
		c.TraceFn(pc, in)
	}
	if c.Prof != nil {
		c.profileCommit(pc, in, out)
	}
	red := c.commitEpilogue(seq, pc, in, ports, out, loadVal, fi)
	if red.stopped {
		return false
	}
	// The atomic model always resumes from the architectural PC, so a
	// redirect needs no extra work.
	return !c.Stopped
}
