// Package campaign implements GemFI's fault injection campaign
// orchestration: statistical generation of fault configurations, golden
// (fault-free) reference runs, checkpoint-based fast-forwarding of
// experiments (Fig. 3 of the paper), parallel local execution, and the
// five-class outcome taxonomy of Section IV.B:
//
//	Crashed / Non-propagated / Strictly-correct / Correct / SDC
package campaign

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/taint"
	"repro/internal/workloads"
)

// CrashInterrupted is the CrashCause reported when a run was stopped via
// Runner.Interrupt — e.g. by a NoW worker's per-experiment timeout. The
// worker retries such results; they are never final outcomes unless the
// retry budget is exhausted.
const CrashInterrupted = "interrupted"

// Outcome is the classification of one experiment (Section IV.B.1).
type Outcome int

// Experiment outcomes.
const (
	// OutcomeCrashed: the run failed to terminate successfully (trap,
	// hang, or nonzero exit).
	OutcomeCrashed Outcome = iota + 1
	// OutcomeNonPropagated: the fault never manifested as an error (not
	// fired, squashed, overwritten before read, or never read).
	OutcomeNonPropagated
	// OutcomeStrictlyCorrect: output bit-wise identical to the golden
	// run although the fault propagated.
	OutcomeStrictlyCorrect
	// OutcomeCorrect: output within the application's quality margin.
	OutcomeCorrect
	// OutcomeSDC: silent data corruption — terminated normally with an
	// unacceptable result.
	OutcomeSDC
	numOutcomes
)

// String names the outcome as in the paper's figures.
func (o Outcome) String() string {
	switch o {
	case OutcomeCrashed:
		return "crashed"
	case OutcomeNonPropagated:
		return "non-propagated"
	case OutcomeStrictlyCorrect:
		return "strictly-correct"
	case OutcomeCorrect:
		return "correct"
	case OutcomeSDC:
		return "SDC"
	default:
		return "unknown"
	}
}

// Outcomes lists all outcome classes in display order.
func Outcomes() []Outcome {
	return []Outcome{OutcomeCrashed, OutcomeNonPropagated, OutcomeStrictlyCorrect, OutcomeCorrect, OutcomeSDC}
}

// Acceptable reports whether the outcome is in the paper's "acceptable"
// union (correct or strictly correct; non-propagated runs are bit-exact
// and therefore acceptable as well).
func (o Outcome) Acceptable() bool {
	return o == OutcomeStrictlyCorrect || o == OutcomeCorrect || o == OutcomeNonPropagated
}

// Experiment is one fault-injection run specification.
type Experiment struct {
	ID     int          `json:"id"`
	Faults []core.Fault `json:"faults"`
}

// Result is the outcome of one experiment.
type Result struct {
	ID      int     `json:"id"`
	Outcome Outcome `json:"outcome"`

	// Fault echoes the primary injected fault for correlation.
	Fault core.Fault `json:"fault"`
	// NormTime is the injection time normalized to the golden run's
	// fault-injection window (for the Fig. 6 correlation).
	NormTime float64 `json:"normTime"`

	Fired      bool   `json:"fired"`
	CrashCause string `json:"crashCause,omitempty"`
	Insts      uint64 `json:"insts"`
	// Ticks is the absolute tick count at the end of the run. It
	// includes the atomic golden pass's ticks up to fi_read_init_all (the
	// checkpoint the experiment starts from), as it includes the atomic
	// ticks of a FastForward prefix or of the fork-server trunk.
	Ticks uint64 `json:"ticks"`

	// InjPC is the guest PC of the instruction the first fired fault
	// actually struck (valid only when InjPCValid). Joining it with the
	// outcome gives the per-PC vulnerability attribution report.
	InjPC      uint64 `json:"injPC,omitempty"`
	InjPCValid bool   `json:"injPCValid,omitempty"`

	// Prop is the propagation-taint summary explaining the outcome
	// (present only when the runner's Cfg enables taint). The
	// full PropReport with the DAG is available per experiment via
	// Runner.LastTaintReport.
	Prop *taint.Summary `json:"prop,omitempty"`

	// WallNs is the experiment's wall-clock execution time on its
	// runner; the serv journal, /results and the SSE stream expose it.
	WallNs int64 `json:"wallNs,omitempty"`
	// Worker names the executor when the experiment ran remotely (the
	// NoW worker's name); empty for local execution.
	Worker string `json:"worker,omitempty"`
	// TraceID links the result to its span tree when span tracing is
	// attached (Runner.AttachSpans); retrieve the tree via /trace/{id}.
	TraceID string `json:"traceId,omitempty"`
	// PhaseNS breaks WallNs into the contiguous phases of the
	// experiment (fork, walk, fast-forward, pre-window, fi-window,
	// post-window, classify, taint) when span tracing is attached.
	PhaseNS map[string]int64 `json:"phaseNs,omitempty"`
	// Postmortem is the flight-recorder dump of the experiment's final
	// instructions, present only when the runner's Cfg enables the
	// flight recorder and the verdict is interesting — crashed,
	// reached-output SDC, or taint reached-state. Masked experiments
	// never carry one.
	Postmortem *flight.Postmortem `json:"postmortem,omitempty"`
}

// Runner executes experiments for one workload. It is not safe for
// concurrent use; a Pool builds one Runner per worker.
type Runner struct {
	Workload *workloads.Workload
	Cfg      sim.Config

	// Golden is the fault-free reference output.
	Golden *workloads.Result
	// WindowInsts is the number of committed instructions in the golden
	// run's fault-injection window.
	WindowInsts uint64

	// Ckpt, when non-nil, is the fi_read_init_all checkpoint every
	// experiment fast-forwards from instead of re-running boot + init
	// (nil under DisableCheckpoint). Its pages are the start point's
	// frozen base: read it, never mutate it.
	Ckpt *checkpoint.State

	// sim is the runner's simulator, fixed at construction.
	sim *sim.Simulator
	// observers are the runner's own commit-stream observers, built from
	// Cfg's switches once the golden pass is done. Experiments accumulate
	// into them (the profile) or reset them (taint, flight).
	observers sim.Observers

	// fork is the fork server every experiment forks from, shared by the
	// runner's clones. Its pool's root is the runner's start point: Ckpt's,
	// or without a checkpoint the booted program. EnableFork adds the
	// trunk's snapshots; until then every experiment is a walk of one
	// from the root, run to its verdict.
	fork *forkServer

	// taintGolden is the final architectural state of the golden run,
	// the taint differ's reference (nil unless Cfg enables taint).
	taintGolden *taint.GoldenState

	propMu    sync.Mutex
	lastProp  *taint.PropReport
	propStamp uint64

	// Span tracing (AttachSpans). curTrace is the live state of the
	// experiment currently inside RunCtx; runners are not concurrent,
	// so no lock is needed.
	spans     *obs.SpanRecorder
	spanTrack string
	curTrace  *expTrace
}

// expTrace is the span bookkeeping of one in-flight experiment: the
// experiment span, the end of the last closed phase (the next phase
// starts there, keeping phases contiguous), and the per-phase totals.
// cuts keeps the raw phase boundaries (only while a flight recorder is
// attached) so a post-mortem dump can place ring records inside the
// experiment's phases.
type expTrace struct {
	span   *obs.Span
	last   time.Time
	phases map[string]int64
	cuts   []flight.Phase
}

// propClock orders LastTaintReport results across a pool's runners.
var propClock atomic.Uint64

// RunnerOptions configures NewRunner.
type RunnerOptions struct {
	// Model for the injection phase (default: SimConfig on the atomic
	// model).
	Cfg *sim.Config
	// DisableCheckpoint runs every experiment from program start (the
	// Fig. 8 baseline).
	DisableCheckpoint bool
	// Checkpoint, when non-nil, is a fi_read_init_all checkpoint taken
	// elsewhere (a NoW or file-share worker's copy): the golden pass
	// continues from it instead of booting, and experiments start from
	// it.
	Checkpoint *checkpoint.State
}

// SimConfig is the simulator configuration of every campaign runner —
// the campaign service's local pool, NoW workers and file-share
// workers — so one campaign gives the same
// verdicts whichever of them runs an experiment. Block translation
// speeds up the atomic golden passes and post-resolve tails; a zero
// maxInsts lets the runner derive the watchdog from the golden run.
// Callers add observers.
func SimConfig(model sim.ModelKind, maxInsts uint64) sim.Config {
	return sim.Config{Model: model, EnableFI: true, MaxInsts: maxInsts,
		EnableBlockTranslation: true}
}

// maxGoldenInsts is the watchdog of a golden pass, and the ceiling of
// the derived experiment watchdog.
const maxGoldenInsts = 2_000_000_000

// NewRunner builds a runner: compiles the workload, takes the fault-free
// golden pass and records the fault-injection window size. Everything the
// golden pass produces is architectural, so it runs on the atomic model
// (translated when the config enables block translation) and unobserved
// whatever cfg asks for: from the options' Checkpoint, or from boot,
// capturing the fi_read_init_all checkpoint on the way. The runner's
// experiments start from that checkpoint, or under DisableCheckpoint from
// the booted program, captured right after Load, and fork onto cfg.Model
// with the observers cfg's EnableProfiler, EnableTaint and EnableFlight
// switch on. A zero MaxInsts becomes a multiple of the golden run's
// length: fault runs that loop forever would otherwise burn the full
// generic limit per experiment. Jacobi-style workloads legitimately run
// much longer than golden when reconverging, so the margin is generous.
func NewRunner(w *workloads.Workload, opts RunnerOptions) (*Runner, error) {
	cfg := SimConfig(sim.ModelAtomic, 0)
	if opts.Cfg != nil {
		cfg = *opts.Cfg
	}
	cfg.EnableFI = true
	p, err := w.Build()
	if err != nil {
		return nil, err
	}
	gcfg := cfg
	if gcfg.MaxInsts == 0 {
		gcfg.MaxInsts = maxGoldenInsts
	}
	gcfg.EnableProfiler, gcfg.EnableTaint, gcfg.EnableFlight = false, false, false
	s := sim.New(gcfg)
	if err := s.Load(p); err != nil {
		return nil, err
	}
	runner := &Runner{Workload: w, Cfg: cfg, sim: s, Ckpt: opts.Checkpoint}
	var start *checkpoint.ForkPoint
	switch {
	case runner.Ckpt != nil:
		start = runner.Ckpt.ForkPoint(s.Mem.TextRegion())
		s.ForkFrom(start, nil)
	case opts.DisableCheckpoint:
		start = s.CaptureForkPoint()
	default:
		s.OnCheckpoint = func(sm *sim.Simulator) {
			if runner.Ckpt == nil {
				runner.Ckpt = sm.Checkpoint()
			}
		}
	}
	s.SwitchModel(sim.ModelAtomic)
	r := s.Run()
	if r.Failed() {
		return nil, fmt.Errorf("campaign: golden run of %s failed: %+v", w.Name, r)
	}
	if start == nil {
		if runner.Ckpt == nil {
			return nil, fmt.Errorf("campaign: %s never executed fi_read_init_all", w.Name)
		}
		start = runner.Ckpt.ForkPoint(s.Mem.TextRegion())
	}
	runner.fork = &forkServer{pool: &snapPool{}}
	runner.fork.pool.setRoot(start)
	runner.WindowInsts = s.Engine.WindowCommits()
	if runner.Golden, err = workloads.Extract(w, s); err != nil {
		return nil, err
	}
	runner.Golden.ExitStatus = r.ExitStatus
	if cfg.MaxInsts == 0 {
		runner.Cfg.MaxInsts = min(r.Insts*50+10_000_000, maxGoldenInsts)
	}
	s.Cfg.MaxInsts = runner.Cfg.MaxInsts
	if cfg.EnableTaint {
		// The simulator still holds the golden run's final state.
		runner.taintGolden = taint.CaptureGolden(&s.Core.Arch, s.Mem)
	}
	s.Cfg.EnableProfiler, s.Cfg.EnableTaint, s.Cfg.EnableFlight = cfg.EnableProfiler, cfg.EnableTaint, cfg.EnableFlight
	s.Observe(sim.Observers{})
	runner.observers = s.Observers()
	return runner, nil
}

// clone builds a pool worker that shares this runner's expensive
// immutable state — golden outputs, checkpoint, fault-injection window,
// fork server (and with it the start point) and taint differ reference — but
// owns a private simulator with its own observers (accumulating
// privately), so the clone can run experiments concurrently with the
// original.
func (r *Runner) clone() (*Runner, error) {
	prog, err := r.Workload.Build()
	if err != nil {
		return nil, err
	}
	s := sim.New(r.Cfg)
	if err := s.Load(prog); err != nil {
		return nil, err
	}
	// The span recorder is shared (it is concurrency-safe); the pool
	// overrides the clone's track with its own lane name.
	return &Runner{
		Workload:    r.Workload,
		Cfg:         r.Cfg,
		Golden:      r.Golden,
		WindowInsts: r.WindowInsts,
		Ckpt:        r.Ckpt,
		fork:        r.fork,
		sim:         s,
		observers:   s.Observers(),
		taintGolden: r.taintGolden,
		spans:       r.spans,
		spanTrack:   r.spanTrack,
	}, nil
}

// Interrupt asks the in-progress experiment's simulation to stop at its
// next poll point; Run then returns a Result with CrashCause
// CrashInterrupted. It is safe to call concurrently with Run: the
// simulator is fixed at construction (the NoW worker's timeout uses it).
func (r *Runner) Interrupt() { r.sim.Interrupt() }

// Profiler returns the runner's profiler (nil when profiling is off).
func (r *Runner) Profiler() *prof.Profiler { return r.observers.Profiler }

// Taint returns the runner's tracker (nil when taint tracking is off).
func (r *Runner) Taint() *taint.Tracker { return r.observers.Taint }

// TaintGolden returns the golden final state used by the differ (nil
// when taint tracking is off).
func (r *Runner) TaintGolden() *taint.GoldenState { return r.taintGolden }

// Flight returns the runner's flight recorder (nil when recording is
// off).
func (r *Runner) Flight() *flight.Recorder { return r.observers.Flight }

// dumpPostmortem builds the flight-recorder dump for one finished
// experiment, mirroring (and extending) the span ForceKeep policy:
// crashed and SDC outcomes always dump, and a taint verdict of
// reached-state — wrong architectural state behind correct output —
// dumps too. Everything the dump splices in is already at hand: the
// ring, the injection point from the result, the taint first-event
// indexes from the last propagation report, and the phase boundaries
// cut during the run.
func (r *Runner) dumpPostmortem(res *Result, tr *expTrace) {
	fr := r.observers.Flight
	if fr == nil {
		return
	}
	interesting := res.Outcome == OutcomeCrashed || res.Outcome == OutcomeSDC ||
		(res.Prop != nil && res.Prop.Verdict == taint.VerdictReachedState)
	if !interesting {
		return
	}
	recs := fr.Records()
	if len(recs) == 0 {
		return
	}
	pm := &flight.Postmortem{
		ExpID:      res.ID,
		TraceID:    res.TraceID,
		Outcome:    res.Outcome.String(),
		Fault:      res.Fault.String(),
		InjPC:      res.InjPC,
		InjPCValid: res.InjPCValid,
		CrashCause: res.CrashCause,
		Depth:      fr.Depth(),
		Committed:  fr.Committed(),
		Squashed:   fr.Squashed(),
		Records:    recs,
		Keyframes:  fr.Keyframes(),
	}
	if tr != nil {
		pm.Phases = tr.cuts
	}
	if res.Prop != nil {
		pm.Verdict = string(res.Prop.Verdict)
	}
	if rep, _ := r.LastTaintReport(); rep != nil {
		pm.Taint = &flight.TaintFirsts{
			FirstLoad:   rep.FirstLoad,
			FirstStore:  rep.FirstStore,
			FirstBranch: rep.FirstBranch,
			FirstOutput: rep.FirstOutput,
		}
	}
	// The faulting instruction never committed — append it so the
	// timeline's final record carries the crash PC.
	if res.Outcome == OutcomeCrashed {
		if t := r.sim.Core.Trap; t != nil {
			pm.AppendTrap(t.PC, uint32(t.Word))
		}
	}
	res.Postmortem = pm
}

// LastTaintReport returns the full propagation report of the runner's
// most recent experiment plus a monotonic stamp for ordering across
// runners. Safe to call concurrently with Run.
func (r *Runner) LastTaintReport() (*taint.PropReport, uint64) {
	r.propMu.Lock()
	defer r.propMu.Unlock()
	return r.lastProp, r.propStamp
}

// recordProp renders and stores the propagation report after one
// experiment; res.Prop gets the compact summary.
func (r *Runner) recordProp(res *Result) {
	if r.observers.Taint == nil {
		return
	}
	rep := r.sim.TaintReport(res.Outcome == OutcomeCrashed, r.taintGolden)
	if rep == nil {
		return
	}
	res.Prop = rep.Summary()
	r.propMu.Lock()
	r.lastProp = rep
	r.propStamp = propClock.Add(1)
	r.propMu.Unlock()
}

// AttachSpans attaches a span recorder: every subsequent experiment
// emits a span tree — an "experiment" root (or a "run" child when
// RunCtx is given a parent from another process), contiguous phase
// children, and the engine's fault-lifecycle events. track names the
// render lane (worker or slot) the runner's spans belong to. Safe to
// call repeatedly; AttachSpans(nil, "") detaches.
func (r *Runner) AttachSpans(rec *obs.SpanRecorder, track string) {
	r.spans = rec
	r.spanTrack = track
}

// Spans returns the attached span recorder (nil when tracing is off).
func (r *Runner) Spans() *obs.SpanRecorder { return r.spans }

// beginExpTrace opens the experiment span (root, or a "run" child under
// a remote parent) and wires the simulator's phase/fault-event hooks.
// Returns nil when span tracing is detached.
func (r *Runner) beginExpTrace(exp Experiment, parent obs.SpanContext, start time.Time) *expTrace {
	tr := r.openExpTrace(exp, parent, start)
	if tr != nil {
		r.sim.SetSpans(r.spans, tr.span)
	}
	return tr
}

// openExpTrace is beginExpTrace for an experiment the simulator does not
// run: the span without the simulator's hooks.
func (r *Runner) openExpTrace(exp Experiment, parent obs.SpanContext, start time.Time) *expTrace {
	if r.spans == nil {
		return nil
	}
	var span *obs.Span
	if parent.Valid() {
		span = r.spans.StartSpan("run", parent)
	} else {
		span = r.spans.StartRoot("experiment")
	}
	span.SetStart(start)
	span.SetTrack(r.spanTrack)
	span.SetAttr("exp_id", exp.ID)
	if r.Workload != nil {
		span.SetAttr("workload", r.Workload.Name)
	}
	if len(exp.Faults) > 0 {
		span.SetAttr("fault", exp.Faults[0].String())
	}
	tr := &expTrace{span: span, last: start, phases: make(map[string]int64, 8)}
	r.curTrace = tr
	return tr
}

// cutPhase closes the phase that began at the previous cut (or at the
// experiment start), emitting it as a child span and accumulating its
// duration, and returns the cut's time. No-op outside a traced RunCtx,
// where it returns the zero time.
func (r *Runner) cutPhase(name string) time.Time { return r.cutPhaseAt(name, time.Now()) }

// cutPhaseAt is cutPhase at a time already taken: a walk member's trace
// opens only once its walk segment has run, and its fork and walk phases
// are cut at the times recorded on the way.
func (r *Runner) cutPhaseAt(name string, now time.Time) time.Time {
	tr := r.curTrace
	if tr == nil {
		return time.Time{}
	}
	if now.After(tr.last) {
		r.spans.AddChild(tr.span.Context(), obs.SpanRecord{
			Name: name, Track: r.spanTrack,
			StartNS: tr.last.UnixNano(), EndNS: now.UnixNano(),
		})
		tr.phases[name] += now.Sub(tr.last).Nanoseconds()
		if r.observers.Flight != nil {
			tr.cuts = append(tr.cuts, flight.Phase{
				Name: name, StartNS: tr.last.UnixNano(), EndNS: now.UnixNano(),
			})
		}
	}
	tr.last = now
	return now
}

// foldSimPhases closes the simulator's phase recording and folds its
// slices (already emitted as spans by the simulator) into the totals,
// advancing the contiguity cursor to the last slice's end.
func (r *Runner) foldSimPhases() {
	tr := r.curTrace
	if tr == nil {
		return
	}
	for _, ph := range r.sim.EndPhaseRecording() {
		tr.phases[ph.Name] += ph.EndNS - ph.StartNS
		tr.last = time.Unix(0, ph.EndNS)
		if r.observers.Flight != nil {
			tr.cuts = append(tr.cuts, flight.Phase{
				Name: ph.Name, StartNS: ph.StartNS, EndNS: ph.EndNS,
				StartTick: ph.StartTick, EndTick: ph.EndTick,
			})
		}
	}
}

// expEvent records a point event at the current tick on the running
// experiment's span; a no-op untraced.
func (r *Runner) expEvent(name string, attrs map[string]any) {
	if tr := r.curTrace; tr != nil {
		tr.span.Event(name, r.sim.Core.Ticks, attrs)
	}
}

// finishExpTrace stamps the verdict onto the experiment span and ends
// it; crashed and SDC experiments force-keep their trace through head
// sampling.
func (r *Runner) finishExpTrace(tr *expTrace, res *Result) {
	if tr == nil {
		return
	}
	r.curTrace = nil
	r.sim.SetSpans(nil, nil)
	res.TraceID = tr.span.Context().TraceID
	if len(tr.phases) > 0 {
		res.PhaseNS = tr.phases
	}
	sp := tr.span
	sp.SetAttr("outcome", res.Outcome.String())
	sp.SetAttr("fired", res.Fired)
	sp.SetAttr("insts", res.Insts)
	sp.SetTicks(0, res.Ticks)
	if res.InjPCValid {
		sp.SetAttr("inj_pc", fmt.Sprintf("%#x", res.InjPC))
	}
	if res.CrashCause != "" {
		sp.SetAttr("crash_cause", res.CrashCause)
	}
	if res.Outcome == OutcomeCrashed {
		sp.SetStatus("crashed: " + res.CrashCause)
	}
	if res.Outcome == OutcomeCrashed || res.Outcome == OutcomeSDC {
		sp.ForceKeep()
	}
	sp.End()
}

// Run executes one experiment and classifies its outcome.
func (r *Runner) Run(exp Experiment) Result {
	return r.RunCtx(exp, obs.SpanContext{})
}

// RunCtx is Run with a distributed-trace parent: when the runner has a
// span recorder attached, the experiment's spans parent under ctx (the
// NoW master's or serv's experiment span) instead of starting a fresh
// trace. An invalid ctx starts a local root — Run's behavior. The
// experiment is a trigger walk of one.
func (r *Runner) RunCtx(exp Experiment, ctx obs.SpanContext) Result {
	var res Result
	r.runWalk(Group{Exps: []Experiment{exp}, snap: r.snapFor(exp)},
		func(Experiment, time.Time) (obs.SpanContext, bool) { return ctx, true },
		func(x Result) { res = x })
	return res
}

// conclude turns a finished run into the experiment's result and closes
// its bookkeeping: output classification, the taint report, the wall
// time and the span tree. pruned, when nonzero, is an outcome the fork
// server already decided.
func (r *Runner) conclude(exp Experiment, runRes sim.RunResult, pruned Outcome, start time.Time, tr *expTrace) Result {
	r.foldSimPhases()
	res := r.classify(exp, runRes, pruned)
	end := r.cutPhase("classify")
	r.recordProp(&res)
	if r.observers.Taint != nil {
		end = r.cutPhase("taint")
	}
	// A traced experiment ends at its last phase cut, so the phases tile
	// WallNs exactly; recording that cut's span is bookkeeping after it.
	if end.IsZero() {
		end = time.Now()
	}
	res.WallNs = end.Sub(start).Nanoseconds()
	r.finishExpTrace(tr, &res)
	r.dumpPostmortem(&res, tr)
	return res
}

// classify builds the result of one finished run: fault bookkeeping,
// then the outcome class from the run's disposition and the output.
func (r *Runner) classify(exp Experiment, runRes sim.RunResult, pruned Outcome) (res Result) {
	res = Result{ID: exp.ID}
	if len(exp.Faults) > 0 {
		res.Fault = exp.Faults[0]
		if r.WindowInsts > 0 {
			res.NormTime = float64(exp.Faults[0].When) / float64(r.WindowInsts)
		}
	}
	res.Insts = runRes.Insts
	res.Ticks = runRes.Ticks
	for _, oc := range runRes.Outcomes {
		if oc.Fired {
			res.Fired = true
			if oc.HavePC && !res.InjPCValid {
				res.InjPC = oc.PC
				res.InjPCValid = true
			}
		}
	}

	if pruned != 0 {
		// Pruned early: the fork server already put the exact final
		// totals into runRes, so only the classification remains.
		res.Outcome = pruned
		return res
	}

	if runRes.Interrupted {
		// Externally stopped (timeout): the simulator state is mid-run,
		// so no output classification is possible.
		res.Outcome = OutcomeCrashed
		res.CrashCause = CrashInterrupted
		return res
	}

	if runRes.Failed() {
		res.Outcome = OutcomeCrashed
		res.CrashCause = runRes.CrashCause
		if runRes.Hung {
			res.CrashCause = "hang (watchdog)"
		}
		return res
	}

	out, err := workloads.Extract(r.Workload, r.sim)
	if err != nil {
		res.Outcome = OutcomeCrashed
		res.CrashCause = err.Error()
		return res
	}
	grade := r.Workload.Classify(r.Golden, out)

	// Combine the engine's propagation verdict with the output grade.
	propagated := false
	for _, oc := range runRes.Outcomes {
		if oc.Propagated {
			propagated = true
		}
	}
	switch {
	case !propagated:
		res.Outcome = OutcomeNonPropagated
	case grade == workloads.GradeStrict:
		res.Outcome = OutcomeStrictlyCorrect
	case grade == workloads.GradeCorrect:
		res.Outcome = OutcomeCorrect
	default:
		res.Outcome = OutcomeSDC
	}
	return res
}

// Tally is an outcome histogram.
type Tally map[Outcome]int

// Add counts a result.
func (t Tally) Add(r Result) { t[r.Outcome]++ }

// Total returns the number of counted results.
func (t Tally) Total() int {
	n := 0
	for _, v := range t {
		n += v
	}
	return n
}

// Fraction returns the share of an outcome.
func (t Tally) Fraction(o Outcome) float64 {
	if t.Total() == 0 {
		return 0
	}
	return float64(t[o]) / float64(t.Total())
}

// TallyOf accumulates a result list.
func TallyOf(rs []Result) Tally {
	t := make(Tally)
	for _, r := range rs {
		t.Add(r)
	}
	return t
}
