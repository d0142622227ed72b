package campaign

// Trigger walks. Every experiment that forks from the same trunk snapshot
// replays the same instructions from that snapshot to its own trigger:
// the detailed model, no fault yet able to act, and no stage hook until a
// trigger is within the engine's budget (core.Engine.FastPath). A walk
// runs that stretch once for the whole group. It forks the snapshot
// cold, as a lone experiment would, and steps the configured model with
// every member's faults armed. Until one of them fires, hooked or
// hookless, nothing is corrupted and the stage counts are exact, so the
// walk is observably each member's own run. At
// the first step boundary where some armed fault could act
// (core.Engine.StepsUntilDue), the walk freezes a warm walk point, hands
// the engine over in place to the owning member's faults, and runs that
// member to its verdict exactly as a lone fork would. Then it resumes
// from the walk point with the other faults as they were. A member
// therefore starts from the state its own run would have reached at its
// trigger, pipeline, predictor and caches included, and its verdict is
// bit-identical to running it alone. A member whose register fault the
// golden run never reads again is concluded at its pause instead, from
// the trunk's last-read table (defuse.go), on every model.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Group is the unit of work a runner takes whole: a trigger walk,
// experiments that fork from one snapshot, in trigger order, where a walk
// of one is a lone experiment. Without a trunk every walk is of one. Any
// subsequence of a group is a group.
type Group struct {
	Exps []Experiment
	snap *forkSnap
}

// snapFor picks an experiment's fork point: the snapshot closest below
// its earliest injection. Tick-timed faults, and faults naming another
// CPU, fall back to the pre-window root — the trunk's tick clock is
// model-dependent, so only the committed-instruction prefix may be
// shared for them.
func (r *Runner) snapFor(exp Experiment) *forkSnap {
	minWhen := ^uint64(0)
	rootOnly := false
	for _, f := range exp.Faults {
		if f.Base == core.TimeTick || f.CPU != "" && f.CPU != sim.CPUName {
			rootOnly = true
		}
		minWhen = min(minWhen, f.When)
	}
	return r.fork.pool.best(minWhen, rootOnly)
}

// walkable reports whether an experiment can share a walk: the runner
// has a trunk, whose last-read table decides dead members at their
// pause, the experiment has a fault, every fault is instruction-timed,
// armed on this CPU and able to fire, and no per-experiment observer
// (profiler, taint, flight) would see the shared stretch. Anything else
// runs as a walk of one that skips straight to its own run.
func (r *Runner) walkable(exp Experiment) bool {
	if len(exp.Faults) == 0 || r.observed() || !r.fork.hasTrunk() {
		return false
	}
	for _, f := range exp.Faults {
		if f.Base == core.TimeTick || f.CPU != "" && f.CPU != sim.CPUName || f.Occ == 0 {
			return false
		}
	}
	return true
}

// observed reports whether the runner has commit-stream observers.
// Their products cover each experiment's whole run, so an observed
// runner never walks, prunes or memoizes.
func (r *Runner) observed() bool { return r.observers != sim.Observers{} }

// planWalks groups experiments into walks. In injection-time order, each
// walkable experiment joins the walk of the snapshot it forks from; the
// others are walks of one. Walks come out in snapshot order. Without a
// trunk every walk is of one, so sorting would share nothing and the
// experiments keep the caller's order.
func (r *Runner) planWalks(exps []Experiment) []Group {
	if r.fork.hasTrunk() {
		exps = sortForFork(exps)
	}
	var walks []Group
	bySnap := make(map[*forkSnap]int)
	for _, exp := range exps {
		snap := r.snapFor(exp)
		if !r.walkable(exp) {
			walks = append(walks, Group{snap: snap, Exps: []Experiment{exp}})
			continue
		}
		if i, ok := bySnap[snap]; ok {
			walks[i].Exps = append(walks[i].Exps, exp)
			continue
		}
		bySnap[snap] = len(walks)
		walks = append(walks, Group{snap: snap, Exps: []Experiment{exp}})
	}
	return walks
}

// runGroup runs a group's members in turn, handing each result to emit
// as soon as it is classified, and returns the members left unstarted
// when member stops it.
func (r *Runner) runGroup(g Group, member Member, emit func(Result)) []Experiment {
	if g.snap == nil {
		g.snap = r.snapFor(g.Exps[0])
	}
	return r.runWalk(g, member, emit)
}

// runWalk executes a walk and hands each member's result to emit as soon
// as it is classified. member supplies each member's span parent. A
// member's phases are fork (the cold fork, or the resume from the last
// walk point), walk (its share of the walk, up to the step before its
// trigger), then the run's own. It returns the members left unstarted
// when member stops it.
//
// The walk forks once and arms every member's faults once. At a member's
// pause it either concludes the member from the trunk's last-read table
// (deadAtPause), dropping its faults in place, or freezes a walk point,
// hands the engine over in place to the member's faults, runs the member
// and resumes the walk point with the other faults as they were. So a
// walk costs its members, each once, whatever its size.
func (r *Runner) runWalk(w Group, member Member, emit func(Result)) []Experiment {
	fs := r.fork
	fs.walks.Add(1)
	base := w.snap.fp.Core.Insts
	exps := w.Exps
	start := time.Now()
	// A member's trace opens as soon as the member is known: at once in a
	// walk of one, at its pause otherwise.
	var tr *expTrace
	if len(exps) == 1 {
		ctx, ok := member(exps[0], start)
		if !ok {
			return exps
		}
		tr = r.beginExpTrace(exps[0], ctx, start)
	}
	faults, off := armAll(exps)
	r.sim.ForkFrom(w.snap.fp, faults)
	forked := time.Now()

	walks := r.walkable(exps[0])
	done := make([]bool, len(exps))
	for left := len(exps); left > 0; left-- {
		m, src, walked := 0, 0, forked
		if walks {
			insts := r.sim.Core.Insts
			var res sim.RunResult
			res, src = r.sim.WalkToDue()
			fs.armedInsts.Add(r.sim.Core.Insts - insts)
			if !res.Paused {
				return r.concludeAll(unstarted(exps, done), member, res, start, forked, tr, emit)
			}
			m = sort.Search(len(exps), func(i int) bool { return off[i+1] > src })
		}
		exp := exps[m]
		ctx, ok := obs.SpanContext{}, true
		if tr == nil {
			ctx, ok = member(exp, start)
		}
		if !ok {
			return unstarted(exps, done)
		}
		done[m] = true

		if walks {
			if res, ev, dead := r.deadAtPause(exp, src); dead {
				r.sim.Engine.Drop(off[m], off[m+1])
				walked = time.Now()
				if tr == nil {
					tr = r.openExpTrace(exp, ctx, start)
				}
				r.cutPhaseAt("fork", forked)
				r.cutPhaseAt("walk", walked)
				fs.preclassified.Add(1)
				r.expEvent("fork.preclassified", ev)
				emit(r.conclude(exp, res, OutcomeNonPropagated, start, tr))
				tr, start = nil, time.Now()
				forked = start
				continue
			}
		}

		var next *checkpoint.ForkPoint
		if left > 1 {
			next = r.sim.CaptureWalkPoint()
		}
		if walks {
			walked = time.Now()
		}
		var rest core.Armed
		if len(exps) > 1 {
			// None of the member's faults has fired, so only the armed
			// list changes, and the member's trace announces its own
			// faults, not the walk's.
			rest = r.sim.Engine.Handover(off[m], off[m+1])
		}
		if tr == nil {
			tr = r.beginExpTrace(exp, ctx, start)
		}
		r.cutPhaseAt("fork", forked)
		r.sim.BeginPhaseRecording(r.cutPhaseAt("walk", walked))
		fs.forks.Add(1)
		runRes, pruned := r.finishForked(exp, base)
		emit(r.conclude(exp, runRes, pruned, start, tr))
		tr = nil
		if next != nil {
			start = time.Now()
			r.sim.ResumeWalk(next, rest)
			forked = time.Now()
		}
	}
	return nil
}

// deadAtPause decides a walk member at its pause, without running it,
// when its one fault is a register fault the golden run makes dead: the
// walk is the golden run so far, the fault strikes the running thread's
// very next commit (not a PAL one, whose dispatch may close the window,
// switch threads or stop the run first), and the trunk's last-read table
// says no commit after that one reads the register. The run would then
// commit exactly the golden instructions with the flipped bits unread,
// so the verdict is non-propagated, fired, with the trunk's totals and
// the struck commit's PC. On timing and pipelined runners the trunk's
// ticks stand in for the child's, as the masked-clean and twin prunes'
// do. It returns that run's result and the span event's attributes.
func (r *Runner) deadAtPause(exp Experiment, src int) (sim.RunResult, map[string]any, bool) {
	if len(exp.Faults) != 1 {
		return sim.RunResult{}, nil, false
	}
	f := exp.Faults[0]
	if f.Loc != core.LocIntReg && f.Loc != core.LocFloatReg || f.Occ != 1 ||
		!r.sim.Engine.DueAtNextCommit(src) {
		return sim.RunResult{}, nil, false
	}
	pc := r.sim.Core.Arch.PC
	word, err := r.sim.Mem.Read32(pc)
	if err != nil || isa.Decode(isa.Word(word)).Format == isa.FormatPAL {
		return sim.RunResult{}, nil, false
	}
	fp, reg := f.Loc == core.LocFloatReg, isa.Reg(f.Reg&31)
	struck := r.sim.Core.Insts + 1
	if !r.fork.lastReads.unreadAfter(fp, reg, struck) {
		return sim.RunResult{}, nil, false
	}
	ev := map[string]any{"id": exp.ID, "reg": regName(fp, reg), "commit": struck, "rule": "unread"}
	res := r.fork.final
	res.Outcomes = []core.FaultOutcome{{Fault: f, Fired: true, PC: pc, HavePC: true, Committed: true}}
	return res, ev, true
}

// regName names register r of the integer or FP file as fault
// descriptions do.
func regName(fp bool, r isa.Reg) string {
	if fp {
		return fmt.Sprintf("f%d", r)
	}
	return r.String()
}

// unstarted lists the members of a walk not yet reached, in order.
func unstarted(exps []Experiment, done []bool) []Experiment {
	var out []Experiment
	for i, exp := range exps {
		if !done[i] {
			out = append(out, exp)
		}
	}
	return out
}

// concludeAll classifies the members left when a walk's run ended before
// any of their faults could act: that run is each one's own, start to
// finish, so they share its final state. tr is the trace already open for
// a walk of one.
func (r *Runner) concludeAll(exps []Experiment, member Member, res sim.RunResult,
	start, forked time.Time, tr *expTrace, emit func(Result)) []Experiment {
	ended := time.Now()
	for i, exp := range exps {
		if tr == nil {
			ctx, ok := member(exp, start)
			if !ok {
				return exps[i:]
			}
			tr = r.beginMemberTrace(exp, ctx, start)
		}
		r.cutPhaseAt("fork", forked)
		r.cutPhaseAt("walk", ended)
		emit(r.conclude(exp, res, 0, start, tr))
		tr = nil
	}
	return nil
}

// beginMemberTrace opens the trace of one member of a walk of several
// whose run has ended. It first re-arms the engine with the member's
// faults alone, so that the trace announces the member's faults, not the
// walk's.
func (r *Runner) beginMemberTrace(exp Experiment, ctx obs.SpanContext, start time.Time) *expTrace {
	eng := r.sim.Engine
	eng.ResetWithWindow(exp.Faults, eng.CaptureWindow())
	return r.beginExpTrace(exp, ctx, start)
}

// armAll concatenates the members' faults into one armed list; member i's
// faults sit at positions [off[i], off[i+1]).
func armAll(exps []Experiment) (faults []core.Fault, off []int) {
	if len(exps) == 1 {
		return exps[0].Faults, []int{0, len(exps[0].Faults)}
	}
	off = make([]int, 0, len(exps)+1)
	for _, exp := range exps {
		off = append(off, len(faults))
		faults = append(faults, exp.Faults...)
	}
	return faults, append(off, len(faults))
}
