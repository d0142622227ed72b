package campaign

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/taint"
	"repro/internal/workloads"
)

// Pool runs experiments in parallel on local worker goroutines, each
// owning a private simulator restored from a shared checkpoint — the
// in-process analogue of running several simulations per workstation
// (the paper ran 4 per quad-core node).
type Pool struct {
	runners []*Runner
	// idle holds the runners not running a group; TryRun takes from it
	// and a finished group puts its runner back.
	idle chan *Runner

	// Spans, when set, turns on distributed span tracing for RunAll:
	// every experiment becomes one trace (experiment root, phase
	// children, fault-lifecycle events) with the worker index as its
	// track. Nil disables at no cost.
	Spans *obs.SpanRecorder
	// OnResult, when set, is called with every completed experiment's
	// result as soon as it lands (before RunAll returns). Calls are
	// serialized.
	OnResult func(Result)
}

// NewPool builds n parallel runners for the workload. The golden run,
// start point and, after EnableFork, the trunk are computed once into the
// pool's Root and shared (forks write private copy-on-write overlays over
// the points' frozen pages, so sharing is safe).
func NewPool(w *workloads.Workload, n int, opts RunnerOptions) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("campaign: pool size must be positive")
	}
	first, err := NewRunner(w, opts)
	if err != nil {
		return nil, err
	}
	return newPool(first, n)
}

// NewPoolOn builds n parallel runners over a root that NewRunner (and
// EnableFork) prepared: no golden pass, no trunk, only the runners'
// simulators. The pool counts its own fork accounting.
func NewPoolOn(root *Root, n int) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("campaign: pool size must be positive")
	}
	first, err := newRunnerOn(root, &forkCounters{})
	if err != nil {
		return nil, err
	}
	return newPool(first, n)
}

// newPool completes a pool of n runners that share first's root and fork
// accounting.
func newPool(first *Runner, n int) (*Pool, error) {
	p := &Pool{runners: []*Runner{first}, idle: make(chan *Runner, n)}
	for i := 1; i < n; i++ {
		r, err := newRunnerOn(first.Root, first.stats)
		if err != nil {
			return nil, err
		}
		p.runners = append(p.runners, r)
	}
	for _, r := range p.runners {
		p.idle <- r
	}
	return p, nil
}

// Size returns the worker count.
func (p *Pool) Size() int { return len(p.runners) }

// Idle returns how many runners are not running a group. For the pool's
// only TryRun caller, a nonzero count stays nonzero until its next
// TryRun.
func (p *Pool) Idle() int { return len(p.idle) }

// Runner returns the first runner (for window/golden metadata).
func (p *Pool) Runner() *Runner { return p.runners[0] }

// AttachSpans attaches rec to every runner; runner i's spans go on the
// track lane followed by i+1.
func (p *Pool) AttachSpans(rec *obs.SpanRecorder, lane string) {
	p.Spans = rec
	for i, r := range p.runners {
		r.AttachSpans(rec, fmt.Sprintf("%s%d", lane, i+1))
	}
}

// TaintReport returns the freshest propagation report across the
// runners: nil when taint tracking is off or no experiment has finished.
// Safe to call while groups run.
func (p *Pool) TaintReport() *taint.PropReport {
	var best *taint.PropReport
	var bestStamp uint64
	for _, r := range p.runners {
		rep, stamp := r.LastTaintReport()
		if rep != nil && stamp >= bestStamp {
			best, bestStamp = rep, stamp
		}
	}
	return best
}

// Profile merges every worker's profiler into one campaign-wide
// profile: nil when profiling is off. Safe to call while groups run
// (snapshots are atomic).
func (p *Pool) Profile() *prof.Profile {
	var parts []*prof.Profile
	for _, r := range p.runners {
		if pr := r.Profiler(); pr != nil {
			parts = append(parts, pr.Snapshot())
		}
	}
	return prof.MergeProfiles(parts...)
}

// Plan groups experiments into the units a runner takes whole: trigger
// walks in snapshot order, or on a pool without a trunk each experiment
// a walk of its own, in the given order.
func (p *Pool) Plan(exps []Experiment) []Group { return p.runners[0].planWalks(exps) }

// Member is called as a runner reaches each member of a group, with the
// time the member's share of the work began. It returns the span context
// the member's trace parents under (zero: a trace of its own), or false
// to stop the group before that member.
type Member func(exp Experiment, start time.Time) (obs.SpanContext, bool)

// TryRun starts g on an idle runner and reports true, or reports false
// at once when every runner is busy. The runner calls member before each
// member and emit with each member's result as soon as it is classified.
// Once the runner is idle again, done gets the members never started.
func (p *Pool) TryRun(g Group, member Member, emit func(Result), done func(unstarted []Experiment)) bool {
	select {
	case r := <-p.idle:
		go func() {
			rest := r.runGroup(g, member, emit)
			p.idle <- r
			done(rest)
		}()
		return true
	default:
		return false
	}
}

// RunAll executes all experiments across the pool and returns results
// ordered by experiment ID. The pool runs whole trigger walks, in
// snapshot order.
func (p *Pool) RunAll(exps []Experiment) []Result {
	p.AttachSpans(p.Spans, "worker ")
	for i := range exps {
		exps[i].ID = i
	}
	results := make([]Result, len(exps))
	var mu sync.Mutex
	emit := func(res Result) {
		results[res.ID] = res
		if p.OnResult != nil {
			mu.Lock()
			p.OnResult(res)
			mu.Unlock()
		}
	}
	own := func(Experiment, time.Time) (obs.SpanContext, bool) { return obs.SpanContext{}, true }
	// freed holds a token once a runner has gone idle since the last
	// failed TryRun; a full buffer already wakes the waiter.
	freed := make(chan struct{}, 1)
	var wg sync.WaitGroup
	done := func([]Experiment) {
		wg.Done()
		select {
		case freed <- struct{}{}:
		default:
		}
	}
	for _, g := range p.Plan(exps) {
		wg.Add(1)
		for !p.TryRun(g, own, emit, done) {
			<-freed
		}
	}
	wg.Wait()
	return results
}
