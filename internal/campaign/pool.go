package campaign

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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

	// Metrics, when set, receives campaign counters: per-outcome tallies
	// (campaign.outcome.<name>), the completed-experiment count, and an
	// experiment-duration histogram (campaign.exp_duration_us). Nil
	// disables at no cost.
	Metrics *obs.Registry
	// Spans, when set, turns on distributed span tracing: every
	// experiment becomes one trace (experiment root, phase children,
	// fault-lifecycle events) with the worker index as its track, and
	// the per-phase latency histograms in Metrics carry trace-ID
	// exemplars. Nil disables at no cost.
	Spans *obs.SpanRecorder
	// OnProgress, when set, is called after every completed experiment
	// with the done count, the total, and the elapsed wall time. Calls
	// are serialized; keep the callback cheap (drivers use it for
	// throttled progress lines).
	OnProgress func(done, total int, elapsed time.Duration)
	// OnResult, when set, is called with every completed experiment's
	// result as soon as it lands (before the run finishes). Calls are
	// serialized with OnProgress; drivers use it to index post-mortem
	// dumps for live serving while the campaign is still running.
	OnResult func(Result)

	// Live status, maintained by RunAll and read by Status() — the
	// campaign driver's -http /status endpoint scrapes this while the
	// run is in flight, so everything is atomic.
	total     atomic.Int64
	done      atomic.Int64
	inFlight  atomic.Int64
	startNano atomic.Int64
	outcomes  [numOutcomes]atomic.Int64 // indexed by Outcome-1
}

// NewPool builds n parallel runners for the workload. The golden run and
// checkpoint are computed once and shared (checkpoint restore deep-copies
// state, so sharing is safe).
func NewPool(w *workloads.Workload, n int, opts RunnerOptions) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("campaign: pool size must be positive")
	}
	first, err := NewRunner(w, opts)
	if err != nil {
		return nil, err
	}
	p := &Pool{runners: make([]*Runner, n)}
	p.runners[0] = first
	for i := 1; i < n; i++ {
		// Clone cheaply: reuse the golden outputs and checkpoint, but
		// give each worker its own simulator.
		r, err := first.Clone()
		if err != nil {
			return nil, err
		}
		p.runners[i] = r
	}
	return p, nil
}

// Size returns the worker count.
func (p *Pool) Size() int { return len(p.runners) }

// Runner returns the first runner (for window/golden metadata).
func (p *Pool) Runner() *Runner { return p.runners[0] }

// TaintReport returns the pool-wide most recent propagation report.
// Safe to call while RunAll is in flight.
func (p *Pool) TaintReport() *taint.PropReport { return FreshestTaintReport(p.runners) }

// FreshestTaintReport returns the freshest LastTaintReport across
// runners: nil when taint tracking is off or no experiment has
// finished. Safe to call while the runners run.
func FreshestTaintReport(runners []*Runner) *taint.PropReport {
	var best *taint.PropReport
	var bestStamp uint64
	for _, r := range runners {
		rep, stamp := r.LastTaintReport()
		if rep != nil && stamp >= bestStamp {
			best, bestStamp = rep, stamp
		}
	}
	return best
}

// Profile merges every worker's profiler into one campaign-wide
// profile. Safe to call while RunAll is in flight.
func (p *Pool) Profile() *prof.Profile { return MergedProfile(p.runners) }

// MergedProfile snapshots and merges the runners' profilers: nil when
// profiling is off. Safe to call while the runners run (snapshots are
// atomic).
func MergedProfile(runners []*Runner) *prof.Profile {
	var parts []*prof.Profile
	for _, r := range runners {
		if pr := r.Profiler(); pr != nil {
			parts = append(parts, pr.Snapshot())
		}
	}
	return prof.MergeProfiles(parts...)
}

// PoolStatus is a point-in-time view of a running (or finished)
// campaign, served as JSON by the -http /status endpoint.
type PoolStatus struct {
	Workload   string         `json:"workload"`
	Workers    int            `json:"workers"`
	Total      int            `json:"total"`
	Done       int            `json:"done"`
	InFlight   int            `json:"inFlight"`
	ElapsedSec float64        `json:"elapsedSec"`
	ExpsPerSec float64        `json:"expsPerSec"`
	Outcomes   map[string]int `json:"outcomes"`
}

// Status reads the live campaign state. Safe to call concurrently with
// RunAll from any goroutine.
func (p *Pool) Status() PoolStatus {
	st := PoolStatus{
		Workers:  len(p.runners),
		Total:    int(p.total.Load()),
		Done:     int(p.done.Load()),
		InFlight: int(p.inFlight.Load()),
		Outcomes: make(map[string]int, int(numOutcomes)),
	}
	if len(p.runners) > 0 && p.runners[0].Workload != nil {
		st.Workload = p.runners[0].Workload.Name
	}
	for _, o := range Outcomes() {
		if n := p.outcomes[int(o)-1].Load(); n > 0 {
			st.Outcomes[o.String()] = int(n)
		}
	}
	if t0 := p.startNano.Load(); t0 > 0 {
		st.ElapsedSec = time.Since(time.Unix(0, t0)).Seconds()
		if st.ElapsedSec > 0 {
			st.ExpsPerSec = float64(st.Done) / st.ElapsedSec
		}
	}
	return st
}

// PhaseHists lazily binds the per-phase latency histograms
// (campaign.phase.<name>_us) of a registry. Observing a result whose
// PhaseNS is populated feeds each phase's duration in microseconds,
// carrying the result's trace ID as the histogram exemplar — a fat
// bucket then links to a concrete experiment's span tree. Safe for
// concurrent use; an instance over a nil registry is free.
type PhaseHists struct {
	reg *obs.Registry
	mu  sync.Mutex
	m   map[string]*obs.Histogram
}

// NewPhaseHists builds the binder (reg may be nil).
func NewPhaseHists(reg *obs.Registry) *PhaseHists {
	return &PhaseHists{reg: reg, m: make(map[string]*obs.Histogram)}
}

// Observe feeds one result's phase durations.
func (p *PhaseHists) Observe(res Result) {
	if p == nil || p.reg == nil || len(res.PhaseNS) == 0 {
		return
	}
	for name, ns := range res.PhaseNS {
		p.mu.Lock()
		h, ok := p.m[name]
		if !ok {
			h = p.reg.Histogram("campaign.phase." + name + "_us")
			p.m[name] = h
		}
		p.mu.Unlock()
		h.ObserveEx(float64(ns)/1e3, res.TraceID)
	}
}

// RunAll executes all experiments across the pool and returns results
// ordered by experiment ID. A fork-enabled pool dispatches whole trigger
// walks, in snapshot order; otherwise every experiment is its own job.
func (p *Pool) RunAll(exps []Experiment) []Result {
	results, _ := p.RunAllContext(context.Background(), exps)
	return results
}

// RunAllContext is RunAll that stops handing out jobs once ctx is done:
// jobs already running finish, experiments never started keep zero
// results, and the error is ctx's.
func (p *Pool) RunAllContext(ctx context.Context, exps []Experiment) ([]Result, error) {
	jobs := make(chan walk)
	results := make([]Result, len(exps))
	start := time.Now()
	p.total.Store(int64(len(exps)))
	p.startNano.Store(start.UnixNano())

	// Instruments are fetched once up front so workers never touch the
	// registry lock; outcomeCounters is read-only during the run.
	durHist := p.Metrics.Histogram("campaign.exp_duration_us")
	completed := p.Metrics.Counter("campaign.completed")
	outcomeCounters := make(map[Outcome]*obs.Counter, int(numOutcomes))
	for _, o := range Outcomes() {
		outcomeCounters[o] = p.Metrics.Counter("campaign.outcome." + o.String())
	}
	if p.Spans != nil {
		p.Spans.AttachMetrics(p.Metrics)
		for wi, r := range p.runners {
			r.AttachSpans(p.Spans, fmt.Sprintf("worker %d", wi+1))
		}
	}
	phaseHists := NewPhaseHists(p.Metrics)

	for i := range exps {
		if exps[i].ID != i {
			exps[i].ID = i
		}
	}
	var done atomic.Int64
	var progressMu sync.Mutex
	var wg sync.WaitGroup
	for wi, r := range p.runners {
		wg.Add(1)
		go func(wi int, r *Runner) {
			defer wg.Done()
			for job := range jobs {
				// Each experiment's duration runs from the previous result
				// (or the job's start) to its own: a walk member's share of
				// the walk is part of it.
				t0 := time.Now()
				p.inFlight.Add(1)
				record := func(res Result) {
					results[res.ID] = res
					durHist.ObserveEx(float64(time.Since(t0).Microseconds()), res.TraceID)
					phaseHists.Observe(res)
					completed.Inc()
					outcomeCounters[res.Outcome].Inc()
					if res.Outcome >= 1 && res.Outcome < numOutcomes {
						p.outcomes[int(res.Outcome)-1].Add(1)
					}
					p.done.Add(1)
					n := done.Add(1)
					if p.OnResult != nil || p.OnProgress != nil {
						progressMu.Lock()
						if p.OnResult != nil {
							p.OnResult(res)
						}
						if p.OnProgress != nil {
							p.OnProgress(int(n), len(exps), time.Since(start))
						}
						progressMu.Unlock()
					}
					t0 = time.Now()
				}
				if job.snap != nil {
					r.runWalk(job, obs.SpanContext{}, record)
				} else {
					record(r.Run(job.exps[0]))
				}
				p.inFlight.Add(-1)
			}
		}(wi, r)
	}
	var plan []walk
	if p.forkEnabled() {
		plan = p.runners[0].planWalks(exps)
	} else {
		plan = make([]walk, len(exps))
		for i := range exps {
			plan[i] = walk{exps: exps[i : i+1]}
		}
	}
	var err error
	for i := 0; i < len(plan) && err == nil; i++ {
		select {
		case jobs <- plan[i]:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	close(jobs)
	wg.Wait()
	return results, err
}
