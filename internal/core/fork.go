package core

import "math"

// Fork support: capturing the engine's fault-injection window bookkeeping
// so a campaign fork taken mid-window behaves exactly like a full replay
// that ran up to the same point. checkpoint.State deliberately omits
// engine state (fi_read_init_all resets it on restore), but a fork is
// different: the trunk has already executed part of the window, so the
// child must inherit the per-thread stage counters and tick anchor or
// every fault timed after the fork point would fire at the wrong moment.

// WindowState is a value snapshot of the engine's activation windows: the
// per-thread counters, which thread is running, the tick clock, and the
// closed-window commit total. It contains no pointers into the engine and
// may be shared across any number of forks.
type WindowState struct {
	Threads       map[uint64]ThreadEnabledFault // value copies, keyed by PCB
	CurrentPCB    uint64
	HaveCurrent   bool
	TicksNow      uint64
	WindowCommits uint64
}

// Open reports whether any fault-injection window is open in the state.
func (ws WindowState) Open() bool { return len(ws.Threads) > 0 }

// WindowOpen reports whether any fault-injection window is currently
// open (some thread has called fi_activate without a matching
// deactivate) — the mid-window-fork check, without the deep copy
// CaptureWindow makes.
func (e *Engine) WindowOpen() bool { return len(e.threads) > 0 }

// CaptureWindow snapshots the engine's window bookkeeping at the current
// instant. The returned state is deep-copied and immutable.
func (e *Engine) CaptureWindow() WindowState {
	ws := WindowState{
		TicksNow:      e.ticksNow,
		WindowCommits: e.windowCommits,
	}
	if len(e.threads) > 0 {
		ws.Threads = make(map[uint64]ThreadEnabledFault, len(e.threads))
		for pcb, t := range e.threads {
			ws.Threads[pcb] = *t
		}
	}
	if e.current != nil {
		ws.CurrentPCB, ws.HaveCurrent = e.current.PCB, true
	}
	return ws
}

// ResetWithWindow is Reset followed by reinstalling a captured window
// state: fresh fault state armed from the descriptions, but thread
// counters, the running-thread pointer, the tick clock, and the
// closed-window total continue from the fork point.
func (e *Engine) ResetWithWindow(faults []Fault, ws WindowState) {
	e.Reset(faults)
	for pcb, t := range ws.Threads {
		ct := t
		e.threads[pcb] = &ct
	}
	if ws.HaveCurrent {
		e.current = e.threads[ws.CurrentPCB]
	}
	e.ticksNow = ws.TicksNow
	e.windowCommits = ws.WindowCommits
	e.refreshHorizon()
}

// StepsUntilDue is the trigger walk's look-ahead. It returns how many
// model steps can run before some armed fault could act, and the
// position in Faults() of a fault that bounds it. Zero steps means a
// fault could act on the very next step; (math.MaxUint64, -1) means none
// ever can (nothing armed is still active).
//
// The bound counts stage events. The pipelined model takes at most one
// event of each stage per cycle; the serial models take at most one per
// committed instruction, plus the events of a trapping one, which ends
// the run. That holds on every tier: the fast path runs an instruction,
// and admits a translated block, only within FastPath's budget, which is
// this look-ahead restricted to the running thread. So a walk that runs
// at most this many steps and commits at most this many instructions
// (sim.WalkToDue caps both) pauses before any fault could act. A window
// opening meanwhile starts a fresh thread's counters at zero, so a fault
// can act no earlier than its When-th event whichever thread it names,
// and the thread counters already open tighten that. Tick-timed faults
// are always reported due: the timing model charges a whole memory
// latency in one step, so ticks have no per-step bound.
func (e *Engine) StepsUntilDue() (steps uint64, src int) {
	steps, src = math.MaxUint64, -1
	for _, fs := range e.states {
		if !fs.active() {
			continue
		}
		n := uint64(0)
		if fs.Base != TimeTick {
			n = stepsUntil(0, fs.When) // a window opening this step
			for _, t := range e.threads {
				if t.ID == fs.ThreadID {
					n = min(n, stepsUntil(t.counter(stageOf(fs.Loc)), fs.When))
				}
			}
		}
		if n < steps {
			steps, src = n, fs.src
		}
	}
	return steps, src
}

// MaskedClean reports whether the experiment's fate is already sealed as
// non-propagated with the machine back in the golden state: every fault
// has finished firing with nothing in flight, every fired fault was
// masked before committed execution observed it (register taint
// overwritten, or all struck instructions squashed), and no taint —
// register, memory, or in-flight — remains outstanding. When true, the
// architectural state equals the fault-free run at the same instruction
// count, so the remaining execution is exactly the golden suffix and a
// fork-server campaign may classify the run without finishing it.
func (e *Engine) MaskedClean() bool {
	for _, fs := range e.states {
		if fs.remaining != 0 || fs.pending > 0 {
			return false
		}
		if !fs.Fired {
			continue
		}
		if fs.Propagated {
			return false
		}
		if !fs.Overwritten && !(fs.Squashed && !fs.Committed) {
			return false
		}
	}
	for i := range e.taintInt {
		if e.taintInt[i] != nil || e.taintFP[i] != nil {
			return false
		}
	}
	return len(e.memTaint) == 0 && len(e.bySeq) == 0
}
