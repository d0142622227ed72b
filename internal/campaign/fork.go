package campaign

// Fork-server campaign scheduling (GemFI §III.D checkpointing taken to
// its limit, ZOFI's fork model). Every Root has a snapshot pool whose
// root entry is the start point, and every experiment is a trigger walk
// (walk.go) forked from a pool entry. Without a trunk the root entry is
// the only one: each experiment is a walk of one that forks
// the start point and runs to its verdict unpruned, which is GemFI's
// replay from the checkpoint. EnableFork adds the trunk: one golden run
// advances once through the fault-injection window, freezing
// copy-on-write snapshots at adaptive intervals into the bounded pool;
// every experiment then forks from the closest snapshot preceding its
// injection point instead of replaying the warm-up. The pool and the
// trunk's products belong to the Root, which pools share; the fork
// counters belong to each pool.
//
// Everything below needs the trunk.
//
// Two exact early exits let most masked experiments finish without
// executing the golden suffix:
//
//   - engine-masked: every fired fault was overwritten or squashed with
//     no outstanding taint, so the machine is provably back in the golden
//     state (Engine.MaskedClean);
//   - trunk-anchor diff: the trunk IS the fault-free twin, and it keeps
//     freezing anchors past the window across the golden tail; a child
//     run to an anchor's exact instruction count and bit-identical to it
//     (architectural, memory-image and kernel state) will execute exactly
//     the golden suffix from there, so its outcome is already decided.
//
// Both fire only after Engine.Resolved(), only on a serial model and only
// while the fault flags are frozen, so they never change a verdict. They
// are always on, except for observed runners (profiler, taint, flight),
// whose products cover the whole run.
//
// A child runs from its snapshot toward its trigger without stage hooks
// for as long as the engine's budget (core.Engine.FastPath) keeps every
// armed trigger out of reach, on all three models and translated on the
// atomic one, with the stage counters kept exact; the hooks come on only
// for the last few events before the trigger. That stretch therefore
// runs at the model's fault-free speed and cannot move a verdict.
//
// What is exact: a fork, walked (walk.go) or not, is bit-identical to a
// cold start at its snapshot on all three models — a fresh simulator
// restoring the snapshot and running the same faults. On the serial
// models (atomic, timing) that is also a full replay. A pipelined fork
// is not a replay: the trunk runs atomic, so its snapshots carry stage
// counters without the wrong-path fetches, decodes and executes a
// pipelined replay would have counted, and a stage fault can strike
// another dynamic instruction (ROADMAP item 1).

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// ForkOptions parameterizes the fork server.
type ForkOptions struct {
	// Snapshots is the target number of trunk snapshots across the
	// fault-injection window (default 32). The capture interval is
	// WindowInsts/Snapshots committed instructions. The pool holds at
	// most Snapshots + Snapshots/2 of them: past that bound the trunk
	// drops every other snapshot, doubling the effective interval (the
	// "adaptive interval" policy).
	Snapshots int
}

// DefaultForkOptions returns the standard fork-server configuration.
func DefaultForkOptions() ForkOptions {
	return ForkOptions{Snapshots: 32}
}

// forkSnap is one pool entry: a frozen fork point plus scheduling
// metadata.
type forkSnap struct {
	fp  *checkpoint.ForkPoint
	win uint64 // window commits at capture (0 = pre-window)
}

// snapPool is the bounded snapshot pool. All methods are safe for
// concurrent use by pool workers.
type snapPool struct {
	mu      sync.Mutex
	root    *forkSnap   // pre-window snapshot, never evicted
	snaps   []*forkSnap // mid-window snapshots sorted by win ascending
	tail    []*forkSnap // post-window prune anchors sorted by insts ascending
	maxLive int

	taken   uint64
	evicted uint64
}

// setRoot installs the pre-window fallback snapshot.
func (sp *snapPool) setRoot(fp *checkpoint.ForkPoint) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.root = &forkSnap{fp: fp}
	sp.taken++
}

// insert adds a mid-window snapshot, thinning the pool when it exceeds
// its bound. The trunk inserts before any experiment forks, so no entry
// is ever in use when it goes.
func (sp *snapPool) insert(fp *checkpoint.ForkPoint) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.snaps = append(sp.snaps, &forkSnap{fp: fp, win: fp.WindowCommits()})
	sp.taken++
	for len(sp.snaps) > sp.maxLive {
		sp.snaps = sp.thin(sp.snaps)
	}
}

// thin drops every other entry of list, doubling its effective interval
// while keeping coverage, and keeps the newest so the latest stretch
// always has a nearby snapshot. Callers hold sp.mu.
func (sp *snapPool) thin(list []*forkSnap) []*forkSnap {
	kept := list[:0]
	lastIdx := len(list) - 1
	for i, s := range list {
		if i%2 == 1 || i == lastIdx {
			kept = append(kept, s)
		} else {
			sp.evicted++
		}
	}
	return kept
}

// maxTail bounds the post-window anchor list; when full, every other
// anchor is dropped and the caller doubles its capture interval — the
// same adaptive-interval policy as the window snapshots.
const maxTail = 64

// insertTail appends a post-window prune anchor, thinning the list by
// half when it hits maxTail. Returns true when it thinned (the trunk
// should double its capture interval).
func (sp *snapPool) insertTail(fp *checkpoint.ForkPoint) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.tail = append(sp.tail, &forkSnap{fp: fp, win: fp.WindowCommits()})
	sp.taken++
	if len(sp.tail) < maxTail {
		return false
	}
	sp.tail = sp.thin(sp.tail)
	return true
}

// anchorAfter returns the trunk snapshot with the smallest committed-
// instruction count >= insts — the next point at which a child can be
// diffed against the golden run — or nil past the last anchor.
func (sp *snapPool) anchorAfter(insts uint64) *forkSnap {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	i := sort.Search(len(sp.snaps), func(i int) bool { return sp.snaps[i].fp.Core.Insts >= insts })
	if i < len(sp.snaps) {
		return sp.snaps[i]
	}
	j := sort.Search(len(sp.tail), func(i int) bool { return sp.tail[i].fp.Core.Insts >= insts })
	if j < len(sp.tail) {
		return sp.tail[j]
	}
	return nil
}

// best returns the snapshot with the largest window-commit count still
// strictly below when — the fault must not have fired yet at the fork
// point — falling back to the pre-window root. rootOnly forces the root
// (tick-timed faults cannot be forked mid-window: the trunk's tick clock
// is model-dependent).
func (sp *snapPool) best(when uint64, rootOnly bool) *forkSnap {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if !rootOnly {
		// Largest win < when: first index with win >= when, minus one.
		i := sort.Search(len(sp.snaps), func(i int) bool { return sp.snaps[i].win >= when })
		if i > 0 {
			return sp.snaps[i-1]
		}
	}
	return sp.root
}

// stats returns pool accounting: snapshots taken, evicted, currently
// live, and the approximate private bytes held live.
func (sp *snapPool) stats() (taken, evicted uint64, live int, bytes uint64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	live = len(sp.snaps) + len(sp.tail)
	bytes = 0
	if sp.root != nil {
		live++
		bytes += sp.root.fp.ApproxBytes()
	}
	for _, s := range sp.snaps {
		bytes += s.fp.ApproxBytes()
	}
	for _, s := range sp.tail {
		bytes += s.fp.ApproxBytes()
	}
	return sp.taken, sp.evicted, live, bytes
}

// forkCounters is the fork accounting of one pool: every runner of the
// pool adds to it, and no other pool does, so campaigns that share a Root
// each count their own experiments.
type forkCounters struct {
	forks         atomic.Uint64
	preclassified atomic.Uint64
	walks         atomic.Uint64
	armedInsts    atomic.Uint64
	prunedMasked  atomic.Uint64
	prunedTwin    atomic.Uint64
	twinChecks    atomic.Uint64
}

// ForkStats is a point-in-time accounting of a fork-server campaign.
type ForkStats struct {
	SnapshotsTaken   uint64 `json:"snapshotsTaken"`
	SnapshotsEvicted uint64 `json:"snapshotsEvicted"`
	SnapshotsLive    int    `json:"snapshotsLive"`
	ApproxBytes      uint64 `json:"approxBytes"`
	// Forks counts the experiments that ran from a fork to a verdict of
	// their own, pruned or not. A member a walk decided at its trigger,
	// or one that shared the end of a walk no fault of which could act,
	// runs no step of its own and is not counted.
	Forks        uint64 `json:"forks"`
	PrunedMasked uint64 `json:"prunedMasked"`
	PrunedTwin   uint64 `json:"prunedTwin"`
	TwinChecks   uint64 `json:"twinChecks"`
	TrunkInsts   uint64 `json:"trunkInsts"`
	// MemoHits is always zero: the fork server keeps no cross-experiment
	// result memo. The field stays for callers that still sum it.
	MemoHits uint64 `json:"memoHits"`

	// Walks counts trigger walks run; a lone experiment is a walk of one.
	// ArmedInsts sums the instructions committed between a fork or
	// walk-point restore and the step before the first armed fault could
	// act: the pre-trigger stretch, which walks share. Experiments that
	// cannot share a walk (tick-timed or fault-free ones, observed
	// runners) skip the look-ahead and add nothing.
	Walks      uint64 `json:"walks"`
	ArmedInsts uint64 `json:"armedInsts"`

	// Preclassified counts the experiments a walk concluded at their
	// trigger from the trunk's last-read table, never forking or running
	// them: register faults whose register the golden run never reads
	// again.
	Preclassified uint64 `json:"preclassified"`
}

// hasTrunk reports whether EnableFork has run the trunk: a trunk run
// commits instructions, a root-only pool's final is zero.
func (rt *Root) hasTrunk() bool { return rt.final.Insts > 0 }

// forkStats combines the root's trunk accounting with a pool's counters.
func (rt *Root) forkStats(c *forkCounters) ForkStats {
	taken, evicted, live, bytes := rt.snaps.stats()
	return ForkStats{
		SnapshotsTaken:   taken,
		SnapshotsEvicted: evicted,
		SnapshotsLive:    live,
		ApproxBytes:      bytes,
		Forks:            c.forks.Load(),
		Walks:            c.walks.Load(),
		ArmedInsts:       c.armedInsts.Load(),
		PrunedMasked:     c.prunedMasked.Load(),
		PrunedTwin:       c.prunedTwin.Load(),
		TwinChecks:       c.twinChecks.Load(),
		TrunkInsts:       rt.final.Insts,
		Preclassified:    c.preclassified.Load(),
	}
}

// trunkConfig derives the trunk/twin simulator configuration from a
// runner's: always the atomic model (the trunk is a golden prefix, no
// faults can strike it), no fast-forward (it IS the fast-forward), no
// observers.
func trunkConfig(cfg sim.Config) sim.Config {
	cfg.Model = sim.ModelAtomic
	cfg.FastForward = false
	cfg.Faults = nil
	cfg.StopAtCheckpoint = false
	cfg.EnableProfiler, cfg.EnableTaint, cfg.EnableFlight = false, false, false
	return cfg
}

// seekChunk bounds the trunk's instruction overshoot past the window-open
// edge; snapshot granularity near the window start is at most this many
// instructions.
const seekChunk = 512

// EnableFork runs the trunk of a checkpoint-backed runner's root: a
// dedicated trunk simulator forks from the snapshot pool's root entry,
// the start point, runs once to completion on the atomic model, and
// freezes snapshots across the fault-injection window on the way,
// recording the run's last-read table. The root fills in place, so every
// runner over it forks from the trunk too. Idempotent.
func (r *Runner) EnableFork(opts ForkOptions) error {
	if r.hasTrunk() {
		return nil
	}
	if r.Ckpt == nil {
		return fmt.Errorf("campaign: fork mode requires a checkpoint-backed runner")
	}
	if opts.Snapshots <= 0 {
		opts.Snapshots = DefaultForkOptions().Snapshots
	}

	p, err := r.Workload.Build()
	if err != nil {
		return err
	}
	trunk := sim.New(trunkConfig(r.Cfg))
	if err := trunk.Load(p); err != nil {
		return err
	}
	sp := r.snaps
	trunk.ForkFrom(sp.root.fp, nil)
	reads := newLastReadRecorder(trunk.Core)
	trunk.Watch(reads)
	sp.maxLive = opts.Snapshots + opts.Snapshots/2

	interval := r.WindowInsts / uint64(opts.Snapshots)
	if interval == 0 {
		interval = 1
	}

	// Seek the window-open edge in small steps, then snapshot across the
	// window at the configured interval. WindowCommits turning nonzero
	// while no thread is active means the window opened and closed within
	// one chunk — skip straight to the completion run.
	res := sim.RunResult{Paused: true}
	for res.Paused && trunk.Engine.ThreadsActive() == 0 && trunk.Engine.WindowCommits() == 0 {
		res = trunk.RunUntil(trunk.Core.Insts + seekChunk)
	}
	for res.Paused && trunk.Engine.ThreadsActive() > 0 {
		sp.insert(trunk.CaptureForkPoint())
		res = trunk.RunUntil(trunk.Core.Insts + interval)
	}
	// Past the window, keep freezing prune anchors across the golden tail
	// at a coarser, adaptively doubling interval: convergence checks diff
	// children against these instead of re-executing a fault-free twin.
	tailInterval := interval * 4
	for res.Paused {
		if sp.insertTail(trunk.CaptureForkPoint()) {
			tailInterval *= 2
		}
		res = trunk.RunUntil(trunk.Core.Insts + tailInterval)
	}
	if res.Failed() {
		sp.snaps, sp.tail = nil, nil
		return fmt.Errorf("campaign: fork trunk run of %s failed: %+v", r.Workload.Name, res)
	}

	r.final, r.lastReads = res, reads.last
	if m, c := r.Cfg.Metrics, r.stats; m != nil {
		m.RegisterFunc("campaign.fork.snapshots_live", func() float64 {
			_, _, live, _ := sp.stats()
			return float64(live)
		})
		m.RegisterFunc("campaign.fork.snapshot_bytes", func() float64 {
			_, _, _, b := sp.stats()
			return float64(b)
		})
		m.RegisterFunc("campaign.fork.forks", func() float64 { return float64(c.forks.Load()) })
		m.RegisterFunc("campaign.fork.walks", func() float64 { return float64(c.walks.Load()) })
		m.RegisterFunc("campaign.fork.armed_insts", func() float64 { return float64(c.armedInsts.Load()) })
		m.RegisterFunc("campaign.fork.pruned_masked", func() float64 { return float64(c.prunedMasked.Load()) })
		m.RegisterFunc("campaign.fork.pruned_twin", func() float64 { return float64(c.prunedTwin.Load()) })
		m.RegisterFunc("campaign.fork.preclassified", func() float64 { return float64(c.preclassified.Load()) })
	}
	return nil
}

// ForkEnabled reports whether the runner's experiments fork from a
// trunk (EnableFork).
func (r *Runner) ForkEnabled() bool { return r.hasTrunk() }

// ForkStats returns the fork accounting of the runner's pool over its
// root's trunk (zero value without a trunk).
func (r *Runner) ForkStats() ForkStats {
	if !r.hasTrunk() {
		return ForkStats{}
	}
	return r.forkStats(r.stats)
}

// childChunk is the forked child's run granularity between prune checks.
const childChunk = 4096

// finishForked runs a forked experiment from the simulator's current
// state — a cold fork, or the end of its trigger walk — to a verdict. It
// returns the child's run result and, when the experiment could be
// classified early, the exact outcome (0 = run to completion, classify
// normally). base is the instruction count of the trunk snapshot the
// experiment forked from: prune checks land every childChunk
// instructions counted from there, wherever the walk handed over.
func (r *Runner) finishForked(exp Experiment, base uint64) (sim.RunResult, Outcome) {
	// Pruning diffs against the trunk, and needs the experiment's only
	// observable products to be the outcome class and the engine flags:
	// profiles, taint reports and post-mortems cover the whole run, so
	// observed runners always finish, as do runners without a trunk.
	if !r.hasTrunk() || r.observed() {
		return r.sim.Run(), 0
	}

	first := base + ((r.sim.Core.Insts-base)/childChunk+1)*childChunk
	for {
		bound := r.sim.Core.Insts + childChunk
		if first > 0 {
			bound, first = first, 0
		}
		res := r.sim.RunUntil(bound)
		if !res.Paused {
			return res, 0 // exit, crash, hang or interrupt: classify normally
		}
		eng := r.sim.Engine
		if !eng.Resolved() {
			continue
		}
		// The pipelined model latches in-flight state across steps that a
		// snapshot comparison cannot see; only prune once the simulator is
		// on a serial model: atomic, or a pipelined run after the switch
		// to atomic that follows its faults' resolution.
		if r.sim.Model.ModelName() == "pipelined" {
			continue
		}
		if eng.MaskedClean() {
			r.stats.prunedMasked.Add(1)
			r.expEvent("fork.prune", map[string]any{"id": exp.ID, "rule": "masked", "insts": res.Insts})
			// The machine is provably back in the golden state: the rest of
			// the run is exactly the trunk's completion, so the experiment
			// inherits the trunk's totals.
			res.Insts, res.Ticks = r.final.Insts, r.final.Ticks
			return res, OutcomeNonPropagated
		}
		// Advance to the next trunk anchor and diff against it — the trunk
		// is the fault-free twin, already executed.
		a := r.snaps.anchorAfter(res.Insts)
		if a == nil {
			return r.sim.Run(), 0 // past the last anchor: run out
		}
		if res = r.sim.RunUntil(a.fp.Core.Insts); !res.Paused {
			return res, 0
		}
		r.stats.twinChecks.Add(1)
		if res.Insts == a.fp.Core.Insts && r.convergedAt(a.fp) {
			r.stats.prunedTwin.Add(1)
			out := OutcomeNonPropagated
			if eng.AnyPropagated() {
				out = OutcomeStrictlyCorrect
			}
			r.expEvent("fork.prune", map[string]any{"id": exp.ID, "rule": "twin", "insts": res.Insts})
			res.Insts, res.Ticks = r.final.Insts, r.final.Ticks
			return res, out
		}
	}
}

// convergedAt reports whether the child is bit-identical to the golden
// trunk at the same committed-instruction count: equal architectural
// state (NaN-safe), equal full memory image (shared pages compare by
// pointer), equal kernel state. When it is, the child's remaining
// execution is exactly the golden suffix. The fault flags are frozen at
// this point — any outstanding taint entry would imply a state divergence
// while the window is open, and closes with the window otherwise — so
// early classification is exact.
func (r *Runner) convergedAt(fp *checkpoint.ForkPoint) bool {
	if r.sim.Core.Insts != fp.Core.Insts {
		return false
	}
	if !r.sim.Core.Arch.BitsEqual(&fp.Core.Arch) {
		return false
	}
	if !r.sim.Mem.ConvergedWith(fp.Mem) {
		return false
	}
	return reflect.DeepEqual(r.sim.Kernel.Snapshot(), fp.Kernel)
}

// EnableFork runs the trunk of the pool's root: every worker forks from
// its snapshots (fork points are immutable, so sharing is lock-free), and
// RunAll dispatches trigger walks in snapshot order. A no-op on a root
// that already has its trunk.
func (p *Pool) EnableFork(opts ForkOptions) error { return p.runners[0].EnableFork(opts) }

// ForkStats returns the pool's fork accounting over its root's trunk
// (zero value without a trunk).
func (p *Pool) ForkStats() ForkStats { return p.runners[0].ForkStats() }

// sortForFork orders experiments by earliest injection time, so walks
// come out in snapshot order with their members in trigger order.
// Returns a new slice; IDs are untouched.
func sortForFork(exps []Experiment) []Experiment {
	out := append([]Experiment(nil), exps...)
	sort.SliceStable(out, func(i, j int) bool {
		return earliestWhen(out[i]) < earliestWhen(out[j])
	})
	return out
}

func earliestWhen(e Experiment) uint64 {
	w := ^uint64(0)
	for _, f := range e.Faults {
		if f.When < w {
			w = f.When
		}
	}
	return w
}
