// Package gemfi is the public API of GemFI-Go, a from-scratch Go
// reproduction of "GemFI: A Fault Injection Tool for Studying the
// Behavior of Applications on Unreliable Substrates" (DSN 2014).
//
// The package re-exports the pieces a downstream user needs:
//
//   - building guest programs (assembler and mini-C compiler),
//   - running them on the simulated Alpha-like machine (three CPU
//     models: atomic, timing, pipelined),
//   - describing and injecting faults (the paper's Location / Thread /
//     Time / Behavior model, including the Listing-1 input file format),
//   - checkpoint-based campaign execution, locally parallel or
//     distributed over a network of workstations,
//   - the paper's six validation workloads and its outcome taxonomy.
//
// Quick start:
//
//	prog, _ := gemfi.CompileC(src)         // or gemfi.Assemble(asmSrc)
//	s := gemfi.NewSimulator(gemfi.SimConfig{Model: gemfi.ModelAtomic, EnableFI: true})
//	_ = s.Load(prog)
//	result := s.Run()
//
// See examples/ for complete programs.
package gemfi

import (
	"io"

	"repro/internal/asm"
	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/now"
	"repro/internal/obs"
	"repro/internal/obs/httpserv"
	"repro/internal/prof"
	"repro/internal/serv"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/taint"
	"repro/internal/workloads"
)

// ---- guest toolchain ----

// Program is a loadable guest image.
type Program = asm.Program

// Assemble builds a program from Thessaly-64 assembly source.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// CompileC builds a program from mini-C source.
func CompileC(src string) (*Program, error) { return minic.Compile(src) }

// ---- simulator ----

// SimConfig configures a simulator; see sim.Config for field docs.
type SimConfig = sim.Config

// Simulator is a wired machine: CPU model + memory + kernel + FI engine.
type Simulator = sim.Simulator

// RunResult summarizes a completed simulation.
type RunResult = sim.RunResult

// ModelKind selects the CPU model.
type ModelKind = sim.ModelKind

// CPU models.
const (
	ModelAtomic    = sim.ModelAtomic
	ModelTiming    = sim.ModelTiming
	ModelPipelined = sim.ModelPipelined
)

// NewSimulator builds a simulator.
func NewSimulator(cfg SimConfig) *Simulator { return sim.New(cfg) }

// DefaultSimConfig is the paper's validation configuration.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Checkpoint is a serializable whole-machine snapshot.
type Checkpoint = checkpoint.State

// LoadCheckpoint reads a checkpoint.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) { return checkpoint.Load(r) }

// ---- fault model ----

// Fault is one fault description (Location, Thread, Time, Behavior).
type Fault = core.Fault

// Location / behavior / time-base enums.
type (
	// FaultLocation is the targeted micro-architectural module.
	FaultLocation = core.Location
	// FaultBehavior is the corruption applied.
	FaultBehavior = core.Behavior
	// FaultTimeBase selects instruction- or tick-relative timing.
	FaultTimeBase = core.TimeBase
)

// Fault locations.
const (
	LocIntReg     = core.LocIntReg
	LocFloatReg   = core.LocFloatReg
	LocSpecialReg = core.LocSpecialReg
	LocFetch      = core.LocFetch
	LocDecode     = core.LocDecode
	LocExec       = core.LocExec
	LocMem        = core.LocMem
	LocPC         = core.LocPC
)

// Fault behaviors.
const (
	BehFlip    = core.BehFlip
	BehXor     = core.BehXor
	BehSet     = core.BehSet
	BehAllZero = core.BehAllZero
	BehAllOne  = core.BehAllOne
)

// Time bases.
const (
	TimeInst = core.TimeInst
	TimeTick = core.TimeTick
)

// ParseFaults reads a GemFI fault input file (the paper's Listing 1
// format).
func ParseFaults(r io.Reader) ([]Fault, error) { return core.ParseFaults(r) }

// ParseFault parses a single fault description line.
func ParseFault(line string) (Fault, error) { return core.ParseFault(line) }

// FaultOutcome is the engine-level lifecycle summary of one fault.
type FaultOutcome = core.FaultOutcome

// ---- campaigns ----

// Experiment is one fault-injection run specification.
type Experiment = campaign.Experiment

// ExperimentResult is a classified campaign result.
type ExperimentResult = campaign.Result

// Outcome is the paper's five-class taxonomy.
type Outcome = campaign.Outcome

// Outcome classes.
const (
	OutcomeCrashed         = campaign.OutcomeCrashed
	OutcomeNonPropagated   = campaign.OutcomeNonPropagated
	OutcomeStrictlyCorrect = campaign.OutcomeStrictlyCorrect
	OutcomeCorrect         = campaign.OutcomeCorrect
	OutcomeSDC             = campaign.OutcomeSDC
)

// CampaignRunner executes experiments against one workload.
type CampaignRunner = campaign.Runner

// CampaignPool runs experiments on parallel local workers.
type CampaignPool = campaign.Pool

// NewCampaignRunner prepares golden run + checkpoint for a workload.
func NewCampaignRunner(w *Workload, opts campaign.RunnerOptions) (*CampaignRunner, error) {
	return campaign.NewRunner(w, opts)
}

// NewCampaignPool builds n parallel campaign runners.
func NewCampaignPool(w *Workload, n int, opts campaign.RunnerOptions) (*CampaignPool, error) {
	return campaign.NewPool(w, n, opts)
}

// GenerateUniform samples single-bit-flip experiments uniformly over
// location, bit and time (the paper's validation methodology).
func GenerateUniform(n int, gc campaign.GenConfig) []Experiment {
	return campaign.GenerateUniform(n, gc)
}

// SampleSize is the Leveugle (DATE'09) statistical campaign sizing the
// paper uses (99% confidence, 1% margin -> 2501..2504 runs).
func SampleSize(populationN int64, confidence, margin, p float64) int64 {
	return stats.SampleSize(populationN, confidence, margin, p)
}

// ---- observability ----

// MetricsRegistry collects counters/gauges/histograms from the
// simulator, campaigns and NoW components; attach one via
// SimConfig.Metrics. A nil registry disables collection at near-zero
// cost.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ValidateProm checks a Prometheus text exposition stream (such as a
// /metrics scrape) and returns the number of sample lines.
func ValidateProm(r io.Reader) (int, error) { return obs.ValidateProm(r) }

// SpanRecorder records hierarchical spans (campaign → experiment →
// phases, with the fault lifecycle as span events) for single runs
// (Simulator.RunTraced), campaigns, the campaign service and NoW
// workers; attach one via Pool.Spans or ServiceConfig.Spans. A nil
// recorder disables tracing at near-zero cost.
type SpanRecorder = obs.SpanRecorder

// Span is one timed operation within a trace; SpanContext carries the
// trace/span identity across process boundaries (the NoW wire).
type Span = obs.Span

// SpanContext identifies a span for cross-process parenting.
type SpanContext = obs.SpanContext

// SpanRecord is the immutable exported form of a completed span.
type SpanRecord = obs.SpanRecord

// NewSpanRecorder builds an empty span recorder.
func NewSpanRecorder() *SpanRecorder { return obs.NewSpanRecorder() }

// ValidateSpansJSONL checks a JSON-lines span stream (the
// -spans-jsonl output) against the span schema and returns the number
// of valid spans.
func ValidateSpansJSONL(r io.Reader) (int, error) { return obs.ValidateSpansJSONL(r) }

// Profiler is the exact per-PC guest profiler: retired instructions,
// cycles, cache misses, branch mispredicts and pipeline stall causes,
// symbolized against the program's function symbols. Set
// SimConfig.EnableProfiler and retrieve it with Simulator.Profiler. Off,
// it costs the hot loop one untaken branch per commit.
type Profiler = prof.Profiler

// Profile is an immutable profiler snapshot; render it with WriteTop,
// WriteJSON or WriteFolded (flamegraph collapsed format).
type Profile = prof.Profile

// MergeProfiles merges worker profiles into one campaign-wide profile.
func MergeProfiles(ps ...*Profile) *Profile { return prof.MergeProfiles(ps...) }

// Symbol is one named guest address range.
type Symbol = asm.Symbol

// SymbolTable maps PCs back to guest function symbols.
type SymbolTable = asm.SymbolTable

// ObsServer is the live observability HTTP server: /metrics (Prometheus
// exposition), /status (campaign JSON), /profile and /debug/pprof.
type ObsServer = httpserv.Server

// ObsServerConfig wires the server's data sources.
type ObsServerConfig = httpserv.Config

// NewObsServer starts an observability server on addr.
func NewObsServer(addr string, cfg ObsServerConfig) (*ObsServer, error) {
	return httpserv.New(addr, cfg)
}

// AttributeOutcomesByPC buckets campaign results by the PC the fault
// struck, symbolized against syms — the per-instruction vulnerability
// report.
func AttributeOutcomesByPC(results []ExperimentResult, syms SymbolTable) (rows []campaign.PCOutcome, unattributed int) {
	return campaign.AttributeByPC(results, syms)
}

// ---- fault-propagation taint tracing ----

// TaintTracker follows injected corruption bit-by-bit through registers,
// memory, control flow and I/O on every CPU model. Set
// SimConfig.EnableTaint and retrieve it with Simulator.Taint. Off, it
// costs the hot loop one untaken branch per commit.
type TaintTracker = taint.Tracker

// PropReport explains where one experiment's corruption went: the
// propagation DAG, taint-width counters and the terminal verdict.
type PropReport = taint.PropReport

// PropSummary is the compact verdict record joined onto
// ExperimentResult.Prop.
type PropSummary = taint.Summary

// TaintVerdict is the terminal explanation of an experiment
// (masked-overwritten, masked-logically, reached-output, ...).
type TaintVerdict = taint.Verdict

// Taint verdicts.
const (
	VerdictNotInjected       = taint.VerdictNotInjected
	VerdictMaskedOverwritten = taint.VerdictMaskedOverwritten
	VerdictMaskedLogically   = taint.VerdictMaskedLogically
	VerdictReachedOutput     = taint.VerdictReachedOutput
	VerdictReachedCrash      = taint.VerdictReachedCrash
	VerdictReachedState      = taint.VerdictReachedState
)

// ValidateTaintReport checks a propagation-report JSON document against
// the schema and returns the parsed report.
func ValidateTaintReport(r io.Reader) (*PropReport, error) { return taint.ValidateReportJSON(r) }

// ---- workloads ----

// Workload is a guest benchmark with output extraction and grading.
type Workload = workloads.Workload

// WorkloadScale selects problem sizes.
type WorkloadScale = workloads.Scale

// Workload scales.
const (
	ScaleTest  = workloads.ScaleTest
	ScaleSmall = workloads.ScaleSmall
	ScalePaper = workloads.ScalePaper
)

// Workloads returns the paper's six benchmarks at a scale.
func Workloads(scale WorkloadScale) []*Workload { return workloads.All(scale) }

// WorkloadByName returns one benchmark by name
// (dct, jacobi, pi, knapsack, deblock, canneal).
func WorkloadByName(name string, scale WorkloadScale) (*Workload, error) {
	return workloads.ByName(name, scale)
}

// ---- campaign service and network of workstations ----

// CampaignService is the durable campaign scheduler and the NoW master:
// it journals every result, runs experiments on local slots and serves
// them to workers through ServeWorkers.
type CampaignService = serv.Service

// ServiceConfig parameterizes a CampaignService; a negative Slots leaves
// every experiment to NoW workers.
type ServiceConfig = serv.Config

// CampaignSpec describes one campaign submitted to a CampaignService.
type CampaignSpec = serv.CampaignSpec

// NewCampaignService opens (or resumes) the journal in cfg.Dir and starts
// the scheduler.
func NewCampaignService(cfg ServiceConfig) (*CampaignService, error) { return serv.New(cfg) }

// NoWWorker pulls and executes experiments from a master.
type NoWWorker = now.Worker

// NewNoWWorker builds a workstation worker.
func NewNoWWorker(cfg now.WorkerConfig) *NoWWorker { return now.NewWorker(cfg) }
