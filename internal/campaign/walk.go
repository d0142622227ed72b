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
// (core.Engine.StepsUntilDue), the walk freezes a warm walk point,
// re-arms the engine in place with the owning member's faults, and runs
// that member to its verdict exactly as a lone fork would. Then it
// resumes from the walk point with the remaining faults. A member
// therefore starts from the state its own run would have reached at its
// trigger, pipeline, predictor and caches included, and its verdict is
// bit-identical to running it alone.

import (
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Group is the unit of work a runner takes whole. On a fork runner it is
// a trigger walk: experiments that fork from one trunk snapshot, in
// trigger order, where a walk of one is a lone experiment. Otherwise it
// is one experiment. Any subsequence of a group is a group.
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
		if f.Base == core.TimeTick || f.CPU != "" && f.CPU != r.Cfg.CPUName {
			rootOnly = true
		}
		minWhen = min(minWhen, f.When)
	}
	return r.fork.pool.best(minWhen, rootOnly)
}

// walkable reports whether an experiment can share a walk: it has a
// fault, every fault is instruction-timed, armed on this CPU and able to
// fire, and no per-experiment observer (profiler, taint, flight) would
// see the shared stretch. Anything else runs as a walk of one that skips
// straight to its own run.
func (r *Runner) walkable(exp Experiment) bool {
	if len(exp.Faults) == 0 || r.observed() {
		return false
	}
	for _, f := range exp.Faults {
		if f.Base == core.TimeTick || f.CPU != "" && f.CPU != r.Cfg.CPUName || f.Occ == 0 {
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
// others are walks of one. Walks come out in snapshot order.
func (r *Runner) planWalks(exps []Experiment) []Group {
	var walks []Group
	bySnap := make(map[*forkSnap]int)
	for _, exp := range sortForFork(exps) {
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
	if r.fork != nil {
		if g.snap == nil {
			g.snap = r.snapFor(g.Exps[0])
		}
		return r.runWalk(g, member, emit)
	}
	for i, exp := range g.Exps {
		ctx, ok := member(exp, time.Now())
		if !ok {
			return g.Exps[i:]
		}
		emit(r.RunCtx(exp, ctx))
	}
	return nil
}

// runWalk executes a walk and hands each member's result to emit as soon
// as it is classified. member supplies each member's span parent. A
// member's phases are fork (the cold fork or walk-point restore), walk
// (its share of the walk, up to the step before its trigger), then the
// run's own. It returns the members left unstarted when member stops it.
func (r *Runner) runWalk(w Group, member Member, emit func(Result)) []Experiment {
	fs := r.fork
	fs.walks.Add(1)
	base := w.snap.fp.Core.Insts
	from := w.snap.fp
	pending := w.Exps
	for len(pending) > 0 {
		start := time.Now()
		// A member's trace opens as soon as the member is known: at once
		// in a walk of one, after its walk segment otherwise.
		var tr *expTrace
		if len(pending) == 1 {
			ctx, ok := member(pending[0], start)
			if !ok {
				return pending
			}
			tr = r.beginExpTrace(pending[0], ctx, start)
		}
		faults, owner := armAll(pending)
		r.sim.ForkFrom(from, faults)
		forked := time.Now()

		m, walked := 0, forked
		walks := r.walkable(pending[0])
		if walks {
			insts := r.sim.Core.Insts
			res, src := r.sim.WalkToDue()
			fs.armedInsts.Add(r.sim.Core.Insts - insts)
			if !res.Paused {
				return r.concludeAll(pending, member, res, start, forked, tr, emit)
			}
			if owner != nil {
				m = owner[src]
			}
		}
		exp := pending[m]
		ctx, ok := obs.SpanContext{}, true
		if tr == nil {
			ctx, ok = member(exp, start)
		}
		if !ok {
			return pending
		}
		pending = append(pending[:m:m], pending[m+1:]...)
		var next *checkpoint.ForkPoint
		if len(pending) > 0 {
			next = r.sim.CaptureWalkPoint()
		}
		if walks {
			walked = time.Now()
		}
		if tr == nil {
			tr = r.beginMemberTrace(exp, ctx, start)
		}
		r.cutPhaseAt("fork", forked)
		r.sim.BeginPhaseRecording(r.cutPhaseAt("walk", walked))
		fs.forks.Add(1)
		runRes, pruned := r.finishForked(exp, base)
		emit(r.conclude(exp, runRes, pruned, nil, start, tr))
		from = next
	}
	return nil
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
		r.fork.forks.Add(1)
		emit(r.conclude(exp, res, 0, nil, start, tr))
		tr = nil
	}
	return nil
}

// beginMemberTrace opens the trace of one member of a walk of several.
// It first hands the engine over from the group's faults to the
// member's in place: none has fired, so only the armed list changes,
// and the member's trace announces its own faults, not the group's.
func (r *Runner) beginMemberTrace(exp Experiment, ctx obs.SpanContext, start time.Time) *expTrace {
	eng := r.sim.Engine
	eng.ResetWithWindow(exp.Faults, eng.CaptureWindow())
	return r.beginExpTrace(exp, ctx, start)
}

// armAll concatenates the members' faults into one armed list; owner maps
// each position back to its member.
func armAll(exps []Experiment) (faults []core.Fault, owner []int) {
	if len(exps) == 1 {
		return exps[0].Faults, nil
	}
	for i, exp := range exps {
		faults = append(faults, exp.Faults...)
		for range exp.Faults {
			owner = append(owner, i)
		}
	}
	return faults, owner
}
