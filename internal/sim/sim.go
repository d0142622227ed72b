// Package sim wires the simulated machine together: memory, caches, CPU
// model, kernel and the GemFI fault injection engine. It owns the run
// loop, the watchdog, checkpoint capture/restore, and the campaign
// methodology's mid-run model switch (pipelined until the injected fault
// commits or squashes, then atomic — Section IV.B.1 of the paper).
package sim

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/bbt"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/prof"
	"repro/internal/taint"
)

// ModelKind selects the CPU model.
type ModelKind string

// CPU models (the paper's speed/accuracy trade-off points).
const (
	ModelAtomic    ModelKind = "atomic"
	ModelTiming    ModelKind = "timing"
	ModelPipelined ModelKind = "pipelined"
)

// ParseModel returns the CPU model a name selects, or an error naming
// the valid ones: every command-line flag and service spec that takes a
// model goes through it.
func ParseModel(name string) (ModelKind, error) {
	switch k := ModelKind(name); k {
	case ModelAtomic, ModelTiming, ModelPipelined:
		return k, nil
	}
	return "", fmt.Errorf("unknown CPU model %q (atomic|timing|pipelined)", name)
}

// CPUName names the simulator's one CPU, as fault descriptions' cpu
// field does.
const CPUName = "system.cpu0"

// Config parameterizes a simulator.
type Config struct {
	// Model is the CPU model of the run. A pipelined run whose faults
	// have all fired, and whose affected instructions have committed or
	// squashed, continues on the atomic model (the campaign methodology
	// of Section IV.B.1); a fault-free pipelined run stays pipelined.
	Model ModelKind

	// EnableFI attaches a fault engine; false models unmodified gem5.
	EnableFI bool
	Faults   []core.Fault

	// Quantum is the scheduler time slice in instructions (0 = default).
	Quantum uint64

	// MaxInsts stops a runaway simulation (0 = no watchdog). The campaign
	// layer classifies a watchdog stop as a crash (hang).
	MaxInsts uint64

	// FastForward runs the cheap atomic model from the start of the run
	// (or from a checkpoint restore) until the fault-injection window
	// opens — the guest's fi_activate_inst — and only then switches to
	// the configured Model. This is the paper's checkpoint
	// fast-forwarding taken to its limit: everything before the window
	// is architecturally equivalent across models, so campaigns pay the
	// detailed model only where faults can strike. No-op when Model is
	// already ModelAtomic.
	FastForward bool

	// Hierarchy overrides the cache configuration (nil = default). Only
	// timing and pipelined models consume cache latencies.
	Hierarchy *mem.HierarchyConfig

	// StopAtCheckpoint ends Run when the guest executes
	// fi_read_init_all() (after taking the checkpoint callback).
	StopAtCheckpoint bool

	// Metrics, when non-nil, receives the whole machine's counters (CPU,
	// caches, FI engine, checkpoint traffic) as pull-collectors; dump it
	// with Metrics.WriteText after the run. Nil disables metrics at zero
	// hot-path cost.
	Metrics *obs.Registry

	// EnableProfiler, EnableTaint and EnableFlight switch on the
	// commit-stream observers (see Observe): the per-PC guest profiler
	// (retired instructions, cycles, cache misses, mispredicts, stalls;
	// built and symbolized at Load), the fault-propagation taint tracker
	// (follows the corrupted bits through registers, memory, control
	// flow and I/O into a per-experiment PropReport) and the flight
	// recorder (a ring of the last FlightDepth committed instructions,
	// dumped retroactively for interesting verdicts; <= 0 selects
	// flight.DefaultDepth). Retrieve them with Simulator.Profiler, Taint
	// and Flight. With all three off the core has no observer: one
	// untaken branch per commit, and block translation stays open.
	EnableProfiler bool
	EnableTaint    bool
	EnableFlight   bool
	FlightDepth    int

	// EnableBlockTranslation attaches the basic-block translator
	// (internal/bbt) to the core: hot straight-line guest code is fused
	// into pre-bound closure chains whenever the atomic fast path is
	// active — outside the fault-injection window, inside it ahead of
	// every armed trigger (a block must fit the FastPath budget), and
	// once the engine is quiescent (every fault exhausted, nothing in
	// flight), e.g. the fast-forward prefix, fault-free runs, the stretch
	// before the fault and the post-resolve atomic tail. Blocks touching a register with outstanding fault taint fall
	// back to the interpreter. Ignored when DisableFastPath is set (the
	// conformance referee must interpret every instruction). On in
	// DefaultConfig.
	EnableBlockTranslation bool

	// DisableFastPath forces the CPU models onto their fully-hooked slow
	// paths and bypasses the decoded-instruction caches. The conformance
	// suite uses it as the reference configuration the fast paths must
	// match bit for bit; there is no reason to set it otherwise.
	DisableFastPath bool
}

// DefaultConfig returns the configuration used throughout the paper's
// validation study: a single pipelined core with split L1s, a unified L2
// and fault injection enabled, with block translation for whatever runs
// on the atomic model.
func DefaultConfig() Config {
	return Config{
		Model:                  ModelPipelined,
		EnableFI:               true,
		EnableBlockTranslation: true,
	}
}

// Simulator is a fully wired simulated machine.
type Simulator struct {
	Cfg    Config
	Mem    *mem.Memory
	Hier   *mem.Hierarchy
	Core   *cpu.Core
	Kernel *kernel.Kernel
	Engine *core.Engine    // nil when EnableFI is false
	BBT    *bbt.Translator // nil unless EnableBlockTranslation
	Model  cpu.Model

	Program *asm.Program

	pipe *cpu.PipelinedModel // the one pipelined model, reused by newModel

	// OnCheckpoint is called when the guest executes fi_read_init_all().
	// The default records that the request happened; campaign drivers
	// replace it to capture a checkpoint.
	OnCheckpoint func(*Simulator)

	// WindowOpenInsts records the committed-instruction count at the
	// first fault-window open of the current run (0 until it happens).
	WindowOpenInsts uint64

	CheckpointHits int
	stopRequested  bool
	switched       bool
	ffActive       bool // fast-forward prefix running (atomic stand-in model)
	ffPending      bool // window opened mid-step: switch before the next step
	interrupted    atomic.Bool
	observers      Observers    // installed on Core by Observe
	watch          cpu.Observer // Watch's extra observer, installed with them

	// Span-phase recording (SetSpans): the run stamps its rare phase
	// transitions (fast-forward end, first window open, last window
	// close) and emits contiguous phase child spans under expSpan when
	// it ends. All stamps happen on already-rare event paths, so the
	// per-instruction loop is untouched; nil spans disables everything.
	spans        *obs.SpanRecorder
	expSpan      *obs.Span
	phaseBegin   phaseCut
	phaseFFArmed bool
	ffEndMark    phaseCut
	winOpenMark  phaseCut
	winCloseMark phaseCut
}

// phaseCut is one phase boundary: wall clock plus guest ticks.
type phaseCut struct {
	ns   int64
	tick uint64
}

// New builds a simulator (without a program; call Load).
func New(cfg Config) *Simulator {
	s := &Simulator{Cfg: cfg}
	s.Mem = mem.New()
	s.Core = &cpu.Core{Name: CPUName, Mem: s.Mem, DisableFastPath: cfg.DisableFastPath}
	if cfg.EnableBlockTranslation && !cfg.DisableFastPath {
		s.BBT = bbt.New(s.Core)
		s.Core.BBT = s.BBT
	}
	if cfg.Model != ModelAtomic {
		hc := mem.DefaultHierarchyConfig()
		if cfg.Hierarchy != nil {
			hc = *cfg.Hierarchy
		}
		s.Hier = mem.NewHierarchy(hc)
		s.Core.Hier = s.Hier
	}
	s.Kernel = kernel.New(s.Mem)
	if cfg.Quantum > 0 {
		s.Kernel.Quantum = cfg.Quantum
	}
	if cfg.EnableFI {
		s.Engine = core.NewEngine(CPUName, cfg.Faults)
		s.Core.FI = s.Engine
		s.Kernel.IOFilter = s.Engine.OnIO
		s.Engine.WindowHook = func(open bool) {
			if s.spans != nil {
				s.markWindow(open)
			}
			if !open {
				return
			}
			if s.WindowOpenInsts == 0 {
				s.WindowOpenInsts = s.Core.Insts
			}
			if s.ffActive {
				// The activating instruction just committed; switch to the
				// detailed model between steps, before any fault can strike.
				s.ffPending = true
			}
		}
	}
	s.Core.OnCheckpoint = func() {
		s.CheckpointHits++
		if s.OnCheckpoint != nil {
			s.OnCheckpoint(s)
		}
		if s.Cfg.StopAtCheckpoint {
			s.stopRequested = true
		}
	}
	s.Observe(Observers{})
	s.registerMetrics()
	return s
}

// Observers is the set of commit-stream observers a simulator installs
// on its core; a nil member is off.
type Observers struct {
	Profiler *prof.Profiler
	Taint    *taint.Tracker
	Flight   *flight.Recorder
}

// Observe installs the simulator's observers: the members of o, plus a
// fresh observer for each nil member whose Cfg switch (EnableProfiler,
// EnableTaint, EnableFlight) is on — the profiler only once a program
// is loaded. It replaces the core's observer list. Passing another
// simulator's Observers keeps accumulating into the same instances,
// which is how a rebuilt simulator carries a runner's profile on.
func (s *Simulator) Observe(o Observers) {
	if o.Profiler == nil && s.Cfg.EnableProfiler && s.Program != nil {
		o.Profiler = prof.ForProgram(s.Program)
	}
	if o.Taint == nil && s.Cfg.EnableTaint {
		o.Taint = taint.New()
	}
	if o.Flight == nil && s.Cfg.EnableFlight {
		o.Flight = flight.NewRecorder(s.Cfg.FlightDepth)
	}
	s.observers = o
	var list []cpu.Observer
	if pr := o.Profiler; pr != nil {
		if pr.Symbols() == nil && s.Program != nil {
			pr.SetSymbols(s.Program.Symbols())
		}
		list = append(list, pr)
	}
	if tr := o.Taint; tr != nil {
		tr.RegisterMetrics(s.Cfg.Metrics)
		list = append(list, tr)
	}
	if s.Engine != nil {
		s.Engine.Taint = o.Taint
	}
	if o.Flight != nil {
		list = append(list, o.Flight)
	}
	if s.watch != nil {
		list = append(list, s.watch)
	}
	s.Core.Observers = list
}

// Watch installs o as one more commit-stream observer beside the
// configured ones, or removes it (nil). It is how a fork-server trunk
// records its golden pass. Like any observer it keeps the atomic model
// off block translation while installed, unless it is a
// cpu.BlockObserver.
func (s *Simulator) Watch(o cpu.Observer) {
	s.watch = o
	s.Observe(s.observers)
}

// Observers returns the installed observers.
func (s *Simulator) Observers() Observers { return s.observers }

// Profiler returns the installed guest profiler (nil when disabled).
func (s *Simulator) Profiler() *prof.Profiler { return s.observers.Profiler }

// Taint returns the installed propagation tracker (nil when disabled).
func (s *Simulator) Taint() *taint.Tracker { return s.observers.Taint }

// Flight returns the installed flight recorder (nil when disabled).
func (s *Simulator) Flight() *flight.Recorder { return s.observers.Flight }

// TaintReport renders the propagation report for the last run. crashed
// tells the verdict logic whether the run ended in a crash; golden (the
// final state of a fault-free run) may be nil, which skips the
// architectural differ.
func (s *Simulator) TaintReport(crashed bool, golden *taint.GoldenState) *taint.PropReport {
	return s.observers.Taint.Report(crashed, &s.Core.Arch, s.Mem, golden)
}

// registerMetrics wires every component's counters into the configured
// registry (the gem5 "stats visitation" analogue). Pull-collectors read
// the components' plain fields at dump time, so the simulation loop is
// untouched.
func (s *Simulator) registerMetrics() {
	r := s.Cfg.Metrics
	if r == nil {
		return
	}
	s.Core.RegisterMetrics(r)
	if s.BBT != nil {
		s.BBT.RegisterMetrics(r)
	}
	if s.Hier != nil {
		s.Hier.RegisterMetrics(r)
	}
	if s.Engine != nil {
		s.Engine.RegisterMetrics(r)
	}
	r.RegisterFunc("sim.checkpoint.hits", func() float64 { return float64(s.CheckpointHits) })
}

// Load boots the program image and installs the profiler (building and
// symbolizing one when EnableProfiler asks for it).
func (s *Simulator) Load(p *asm.Program) error {
	s.Program = p
	if err := s.Kernel.Boot(s.Core, p); err != nil {
		return fmt.Errorf("sim load: %w", err)
	}
	s.Observe(s.observers)
	s.Model = s.newModel(s.Cfg.Model)
	s.armFastForward()
	return nil
}

// armFastForward starts the run on the cheap atomic model when
// fast-forward is configured; the window-open hook switches to the
// configured model.
func (s *Simulator) armFastForward() {
	s.ffActive = false
	s.ffPending = false
	if !s.Cfg.FastForward || s.Cfg.Model == ModelAtomic || s.Engine == nil {
		return
	}
	s.ffActive = true
	s.Model = cpu.NewAtomic(s.Core)
}

// armTranslationLimit (re)computes the translator's committed-instruction
// ceiling for a run entered with bound `until` committed instructions
// (0 = run to completion). Translated blocks must land every stop, pause
// and model switch on exactly the instruction count the interpreter
// would have produced, so the ceiling is the min over every active
// instruction-indexed event: the run bound and the watchdog.
func (s *Simulator) armTranslationLimit(until uint64) {
	if s.BBT == nil {
		return
	}
	lim := until
	if s.Cfg.MaxInsts > 0 && (lim == 0 || s.Cfg.MaxInsts < lim) {
		lim = s.Cfg.MaxInsts
	}
	s.BBT.SetLimit(lim)
}

// endFastForward switches from the atomic prefix to the configured
// detailed model. The atomic model holds no speculative state, so the
// switch is a clean handoff at an instruction boundary. Deliberately not
// SwitchModel: the fast-forward prefix must not consume the run's one
// post-resolve switch to the atomic model.
func (s *Simulator) endFastForward() {
	s.ffActive = false
	s.ffPending = false
	if s.spans != nil && s.ffEndMark.ns == 0 {
		s.ffEndMark = phaseCut{time.Now().UnixNano(), s.Core.Ticks}
	}
	s.Model = s.newModel(s.Cfg.Model)
	s.Cfg.Metrics.Counter("sim.fastforward.switches").Inc()
}

// newModel returns a cold model of the given kind at the core's current
// state. The pipelined model is built once and reset in place afterwards:
// its latches and predictor are the bulk of a fork's reset.
func (s *Simulator) newModel(kind ModelKind) cpu.Model {
	switch kind {
	case ModelAtomic:
		return cpu.NewAtomic(s.Core)
	case ModelTiming:
		return cpu.NewTiming(s.Core)
	default:
		if s.pipe == nil {
			s.pipe = cpu.NewPipelined(s.Core)
			s.pipe.RegisterMetrics(s.Cfg.Metrics)
		} else {
			s.pipe.Reset()
		}
		return s.pipe
	}
}

// RunResult summarizes a completed simulation.
type RunResult struct {
	Exited              bool
	ExitStatus          int
	Crashed             bool
	CrashCause          string
	Hung                bool
	Interrupted         bool // stopped by Interrupt() (external timeout)
	StoppedAtCheckpoint bool
	Paused              bool // RunUntil hit its instruction bound mid-run

	Insts uint64
	Ticks uint64

	Console  string
	Model    string // model active at the end of the run
	Switched bool   // pipelined -> atomic switch happened

	Outcomes []core.FaultOutcome
}

// Failed reports whether the run should be classified as crashed
// (trap, hang or nonzero exit).
func (r RunResult) Failed() bool {
	return r.Crashed || r.Hung || (r.Exited && r.ExitStatus != 0)
}

// Interrupt asks a running simulation to stop at the next step-batch
// boundary. It is the only Simulator method safe to call from another
// goroutine; the NoW worker's per-experiment timeout uses it to reclaim a
// hung simulation. The interrupted Run returns with Interrupted set.
func (s *Simulator) Interrupt() { s.interrupted.Store(true) }

// SetSpans attaches a span recorder and the enclosing experiment span:
// phase recording (BeginPhaseRecording / EndPhaseRecording) emits
// contiguous phase child spans under exp, and the fault engine's
// lifecycle events (faults armed before the span included) and the
// run's watchdog, interrupt and model-switch events land on exp's
// timeline as span events. SetSpans(nil, nil) detaches; the disabled
// path costs nothing.
func (s *Simulator) SetSpans(rec *obs.SpanRecorder, exp *obs.Span) {
	if rec == nil || exp == nil {
		rec, exp = nil, nil
	}
	s.spans = rec
	s.expSpan = exp
	if s.Engine != nil {
		s.Engine.SetSpan(exp)
	}
}

// BeginPhaseRecording starts phase-slice accounting for the experiment
// about to run; its first phase begins at start, the wall-clock time the
// caller's own preceding phase ended, so the two timelines meet without
// a gap or an overlap. Call it after Restore/ForkFrom (so the
// fast-forward and window state reflect this experiment) and before the
// first Run or RunUntil; phases accumulate across any number of run
// calls (the fork server's prune loop runs in chunks) until
// EndPhaseRecording. A no-op without SetSpans.
func (s *Simulator) BeginPhaseRecording(start time.Time) {
	if s.spans == nil || s.expSpan == nil {
		return
	}
	s.ffEndMark, s.winOpenMark, s.winCloseMark = phaseCut{}, phaseCut{}, phaseCut{}
	s.phaseBegin = phaseCut{start.UnixNano(), s.Core.Ticks}
	s.phaseFFArmed = s.ffActive
	if s.Engine != nil && s.Engine.WindowOpen() {
		// Mid-window fork: the open edge is behind us on the trunk, so
		// the experiment starts directly inside the FI window.
		s.winOpenMark = s.phaseBegin
	}
}

// EndPhaseRecording closes phase accounting: it cuts the experiment's
// wall time into contiguous phase slices (fast-forward, pre-window,
// fi-window, post-window), emits each as a child span of the attached
// experiment span, and returns them. Returns nil when recording was
// never begun.
func (s *Simulator) EndPhaseRecording() []obs.PhaseSlice {
	if s.spans == nil || s.expSpan == nil || s.phaseBegin.ns == 0 {
		return nil
	}
	phases := s.emitPhases(s.phaseBegin, s.phaseFFArmed)
	s.phaseBegin = phaseCut{}
	return phases
}

// markWindow stamps the fault-window transitions for phase spans: the
// first open and the last close of the run. Called from the engine's
// WindowHook, i.e. twice per experiment, never per instruction.
func (s *Simulator) markWindow(open bool) {
	cut := phaseCut{time.Now().UnixNano(), s.Core.Ticks}
	if open {
		if s.winOpenMark.ns == 0 {
			s.winOpenMark = cut
		}
	} else {
		s.winCloseMark = cut
	}
}

// emitPhases cuts the finished run into contiguous phase slices from
// the stamped transition marks, emits each as a child span of expSpan,
// and returns the slices. Boundaries are clamped monotonic (the window
// opens an instant before the fast-forward switch lands), and missing
// transitions extend the previous phase to the run's end — a window
// that never opens leaves one long pre-window, a window still open at
// exit leaves fi-window as the final phase.
func (s *Simulator) emitPhases(start phaseCut, ffArmed bool) []obs.PhaseSlice {
	end := phaseCut{time.Now().UnixNano(), s.Core.Ticks}
	ffEnd, winOpen, winClose := s.ffEndMark, s.winOpenMark, s.winCloseMark
	type bound struct {
		name string // phase that ENDS at this cut
		cut  phaseCut
	}
	var bounds []bound
	if ffArmed {
		if ffEnd.ns == 0 {
			ffEnd = end // run ended inside the fast-forward prefix
		}
		bounds = append(bounds, bound{"fast-forward", ffEnd})
	}
	if winOpen.ns == 0 {
		winOpen, winClose = end, end // window never opened
	} else if winClose.ns == 0 {
		winClose = end // window still open at exit
	}
	bounds = append(bounds,
		bound{"pre-window", winOpen},
		bound{"fi-window", winClose},
		bound{"post-window", end},
	)
	parent := s.expSpan.Context()
	track := s.expSpan.TrackName()
	cur := start
	var phases []obs.PhaseSlice
	for _, b := range bounds {
		to := b.cut
		if to.ns < cur.ns {
			to = cur
		}
		if to.ns > end.ns {
			to = end
		}
		if to.ns <= cur.ns {
			cur = to
			continue // zero-length phase (e.g. pre-window with ff-to-window)
		}
		ph := obs.PhaseSlice{
			Name: b.name, StartNS: cur.ns, EndNS: to.ns,
			StartTick: cur.tick, EndTick: to.tick,
		}
		phases = append(phases, ph)
		s.spans.AddChild(parent, obs.SpanRecord{
			Name: ph.Name, Track: track,
			StartNS: ph.StartNS, EndNS: ph.EndNS,
			StartTick: ph.StartTick, EndTick: ph.EndTick,
		})
		cur = to
	}
	return phases
}

// Run drives the simulation to completion (program exit, trap, watchdog,
// checkpoint stop, or external interrupt).
func (s *Simulator) Run() RunResult {
	if s.Model == nil {
		return RunResult{Crashed: true, CrashCause: "no program loaded"}
	}
	return s.finish(s.loop(0, 0))
}

// RunTraced is Run recorded as one span tree on rec: a "run" root
// carrying the result, its phase children and, as root events, the
// fault lifecycle. It returns the finished trace, nil when rec samples
// it out. A nil rec records nothing: RunTraced is then Run.
func (s *Simulator) RunTraced(rec *obs.SpanRecorder) (RunResult, *obs.Trace) {
	root := rec.StartRoot("run")
	s.SetSpans(rec, root)
	start := s.Core.Ticks
	s.BeginPhaseRecording(time.Now())
	r := s.Run()
	s.EndPhaseRecording()
	s.SetSpans(nil, nil)
	for k, v := range runSpanArgs(r) {
		root.SetAttr(k, v)
	}
	root.SetTicks(start, r.Ticks)
	root.End()
	return r, rec.TraceByID(root.Context().TraceID)
}

// loopEnd says why loop returned.
type loopEnd int

const (
	loopStopped     loopEnd = iota // core stopped, or a checkpoint stop was requested
	loopPaused                     // an instruction or step bound was reached
	loopHung                       // the watchdog fired
	loopInterrupted                // Interrupt was called
)

// loop is the one simulation loop behind Run, RunUntil and WalkToDue. It
// steps the model until the core stops, a checkpoint stop is requested,
// the watchdog fires or an interrupt lands. A nonzero until pauses once
// the core has committed that many instructions, checked before the
// step's watchdog and model-switch checks (RunUntil's contract). A
// nonzero steps pauses after that many steps, checked after every other
// check of the step, so a run resumed from such a pause continues exactly
// as one that never paused. On return the fault engine's counters are
// current: the pipelined model's last hookless events are flushed.
func (s *Simulator) loop(until, steps uint64) loopEnd {
	defer s.Core.FlushRetired()
	s.armTranslationLimit(until)
	var n uint64
	for !s.Core.Stopped && !s.stopRequested {
		// The interrupt flag is polled once per 256 steps so the atomic
		// load stays off the per-instruction critical path.
		if n&255 == 0 && s.interrupted.Load() {
			s.interrupted.Store(false)
			s.expSpan.Event("run.interrupted", s.Core.Ticks, nil)
			return loopInterrupted
		}
		n++
		if !s.Model.Step() {
			break
		}
		if s.ffPending {
			s.endFastForward()
		}
		if until > 0 && s.Core.Insts >= until {
			return loopPaused
		}
		if s.Cfg.MaxInsts > 0 && s.Core.Insts >= s.Cfg.MaxInsts {
			s.expSpan.Event("watchdog.hang", s.Core.Ticks,
				map[string]any{"insts": s.Core.Insts})
			return loopHung
		}
		// The post-resolve switch. A serial model pays one compare a
		// step, and Injections, zero until some fault fires, keeps a
		// fault-free pipelined run off the fault list.
		if s.Cfg.Model == ModelPipelined && !s.switched && s.Engine != nil &&
			s.Engine.Injections != 0 && s.Engine.AnyFired() && s.Engine.Resolved() {
			s.SwitchModel(ModelAtomic)
		}
		if n == steps {
			return loopPaused
		}
	}
	return loopStopped
}

// finish assembles the result of a loop that ended with why.
func (s *Simulator) finish(why loopEnd) RunResult {
	switch why {
	case loopPaused:
		r := s.result(false, false)
		r.Paused = true
		return r
	case loopHung:
		return s.result(false, true)
	case loopInterrupted:
		r := s.result(false, false)
		r.Interrupted = true
		return r
	}
	stoppedAtCkpt := s.stopRequested && !s.Core.Stopped
	s.stopRequested = false
	return s.result(stoppedAtCkpt, false)
}

// runSpanArgs describes a result on its run span.
func runSpanArgs(r RunResult) map[string]any {
	switch {
	case r.Interrupted:
		return map[string]any{"outcome": "interrupted"}
	case r.Hung:
		return map[string]any{"outcome": "hang"}
	case r.Paused:
		return map[string]any{"outcome": "paused", "insts": r.Insts}
	}
	return map[string]any{
		"outcome": runOutcomeName(r), "insts": r.Insts, "ticks": r.Ticks, "model": r.Model,
	}
}

// runOutcomeName labels a result for trace events.
func runOutcomeName(r RunResult) string {
	switch {
	case r.Crashed:
		return "crashed"
	case r.Hung:
		return "hang"
	case r.StoppedAtCheckpoint:
		return "checkpoint"
	default:
		return "exit"
	}
}

// result assembles the RunResult.
func (s *Simulator) result(atCheckpoint, hung bool) RunResult {
	r := RunResult{
		Insts:               s.Core.Insts,
		Ticks:               s.Core.Ticks,
		Console:             s.Kernel.Console(),
		Model:               s.Model.ModelName(),
		Switched:            s.switched,
		Hung:                hung,
		StoppedAtCheckpoint: atCheckpoint,
	}
	if s.Engine != nil {
		r.Outcomes = s.Engine.Outcomes()
	}
	if hung {
		return r
	}
	if atCheckpoint {
		return r
	}
	if s.Core.Trap != nil {
		r.Crashed = true
		r.CrashCause = s.Core.Trap.Error()
		return r
	}
	if s.Core.Stopped {
		r.Exited = true
		r.ExitStatus = s.Core.ExitStatus
	}
	return r
}

// SwitchModel drains the current model and continues with another —
// gem5's CPU-model switching, used by the campaign methodology to finish
// runs in fast atomic mode after fault manifestation, and to take golden
// runs on the atomic model. An explicit switch cancels a pending
// fast-forward prefix: the chosen model runs until the next
// Restore/ForkFrom.
func (s *Simulator) SwitchModel(kind ModelKind) {
	from := s.Model.ModelName()
	s.Model.Drain()
	if s.Core.Stopped {
		return
	}
	s.Model = s.newModel(kind)
	s.switched = true
	s.ffActive, s.ffPending = false, false
	s.Cfg.Metrics.Counter("sim.model_switches").Inc()
	s.expSpan.Event("model.switch", s.Core.Ticks,
		map[string]any{"from": from, "to": string(kind)})
}

// Checkpoint captures the whole-machine state.
func (s *Simulator) Checkpoint() *checkpoint.State {
	st := &checkpoint.State{
		Core:   s.Core.Snapshot(),
		Mem:    s.Mem.Snapshot(),
		Kernel: s.Kernel.Snapshot(),
	}
	s.Cfg.Metrics.Counter("sim.checkpoint.captures").Inc()
	return st
}

// Restore rewinds the machine to a checkpoint and re-arms the fault
// engine with a fresh fault list (the fi_read_init_all contract: "upon
// restoring a checkpoint GemFI parses again the faults configuration
// file"). It is ForkFrom of the cold point st.ForkPoint over the
// simulator's text region: the CPU model restarts cleanly (drained
// pipeline, cold predictor and caches), and st's pages become that
// point's frozen base, adopted by reference, so they must not be
// mutated afterwards.
func (s *Simulator) Restore(st *checkpoint.State, faults []core.Fault) {
	s.ForkFrom(st.ForkPoint(s.Mem.TextRegion()), faults)
	s.Cfg.Metrics.Counter("sim.checkpoint.restores").Inc()
}

// RunToCheckpoint runs until fi_read_init_all() executes and returns the
// captured state; an error is returned if the program ends first.
func (s *Simulator) RunToCheckpoint() (*checkpoint.State, RunResult, error) {
	var captured *checkpoint.State
	prevHook := s.OnCheckpoint
	prevStop := s.Cfg.StopAtCheckpoint
	s.OnCheckpoint = func(sim *Simulator) { captured = sim.Checkpoint() }
	s.Cfg.StopAtCheckpoint = true
	res := s.Run()
	s.OnCheckpoint = prevHook
	s.Cfg.StopAtCheckpoint = prevStop
	if captured == nil {
		return nil, res, fmt.Errorf("sim: program ended without reaching fi_read_init_all")
	}
	return captured, res, nil
}

// ReadMem64 reads a quadword of guest memory (harness output extraction).
func (s *Simulator) ReadMem64(addr uint64) (uint64, error) { return s.Mem.Read64(addr) }

// ReadMemBytes reads guest memory (harness output extraction).
func (s *Simulator) ReadMemBytes(addr uint64, n int) ([]byte, error) {
	return s.Mem.LoadBytes(addr, n)
}
