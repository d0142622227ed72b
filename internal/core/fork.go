package core

import (
	"math"
	"sort"
)

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
	e.installWindow(ws)
}

// installWindow reinstalls a captured window state over a reset run.
func (e *Engine) installWindow(ws WindowState) {
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

// Armed is the rest of a trigger walk's armed faults, set aside by
// Handover while one member runs alone and reinstalled by Resume. None
// of them has fired, so their state is exactly as armed.
type Armed struct {
	faults []Fault
	states []*faultState
	queues [numStages][]*faultState
}

// Drop disarms, in place, the faults at positions [lo, hi) of Faults(),
// none of which may have fired: a trigger walk concludes a member
// without running it. The other faults keep their state and their
// positions, so StepsUntilDue keeps naming them as before.
func (e *Engine) Drop(lo, hi int) {
	e.states, _ = cutRange(e.states, lo, hi)
	for s := range e.queues {
		e.queues[s], _ = cutRange(e.queues[s], lo, hi)
	}
	e.refreshHorizon()
}

// Handover hands the engine over in place from a trigger walk's armed
// faults to the faults at positions [lo, hi) of Faults() — one member's,
// none of which has fired — and returns the others, set aside unchanged
// for Resume. The member's faults keep their state, numbered as if armed
// alone, and the next span announces them as a fresh arming would. It
// costs the member's faults, not the walk's.
func (e *Engine) Handover(lo, hi int) Armed {
	rest := Armed{faults: e.faults}
	var own []*faultState
	rest.states, own = cutRange(e.states, lo, hi)
	for s := range e.queues {
		rest.queues[s], _ = cutRange(e.queues[s], lo, hi)
		e.queues[s] = nil
	}
	e.faults = append([]Fault(nil), e.faults[lo:hi]...)
	e.states = own
	for i, fs := range own {
		fs.idx, fs.src = i, fs.src-lo
		s := stageOf(fs.Loc)
		e.queues[s] = append(e.queues[s], fs)
	}
	e.unannounced = e.span == nil
	e.refreshHorizon()
	return rest
}

// Resume reinstalls a walk's faults set aside by Handover under a
// captured window state: ResetWithWindow without arming anything anew.
func (e *Engine) Resume(a Armed, ws WindowState) {
	e.faults, e.states, e.queues = a.faults, a.states, a.queues
	e.unannounced = e.span == nil
	e.resetRun()
	e.installWindow(ws)
}

// cutRange removes from list, which is in Faults() order, the states at
// positions [lo, hi) of Faults(), and returns them too. A leading run is
// cut by reslicing, so a walk that concludes its members in trigger
// order pays nothing per member; the cut run then keeps its place in the
// backing array, capped so that appending to it cannot reach the rest.
func cutRange(list []*faultState, lo, hi int) (kept, cut []*faultState) {
	i := sort.Search(len(list), func(i int) bool { return list[i].src >= lo })
	j := sort.Search(len(list), func(j int) bool { return list[j].src >= hi })
	if i == 0 {
		return list[j:], list[:j:j]
	}
	cut = append(cut, list[i:j]...)
	n := copy(list[i:], list[j:])
	clear(list[i+n:])
	return list[:i+n], cut
}

// DueAtNextCommit reports whether the armed fault at position src of
// Faults() strikes the running thread's next counted commit: it is an
// instruction-timed register, special-register or PC fault of the
// running thread, and one more commit reaches its trigger. A trigger
// walk paused for it then knows the commit it strikes.
func (e *Engine) DueAtNextCommit(src int) bool {
	t := e.current
	i := sort.Search(len(e.states), func(i int) bool { return e.states[i].src >= src })
	if t == nil || i == len(e.states) || e.states[i].src != src {
		return false
	}
	fs := e.states[i]
	return fs.active() && fs.Base != TimeTick && stageOf(fs.Loc) == StageCommit && fs.Loc != LocIO &&
		fs.ThreadID == t.ID && due(t.Commits+1, fs.When)
}
