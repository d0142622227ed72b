package sim

// Fork-server support (GemFI §III.D checkpointing taken in-process, ZOFI's
// fork model): a campaign trunk run freezes copy-on-write ForkPoints as it
// goes, and each experiment forks a worker simulator from the closest
// preceding one in O(dirty pages) instead of replaying the warm-up.

import (
	"math"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
)

// CaptureForkPoint freezes the whole machine into a copy-on-write fork
// point: CPU and kernel snapshots by value, memory by freezing the
// private overlay into a shared base (no page copies), and — unlike
// Checkpoint — the fault engine's window bookkeeping, so forks taken
// mid-window time their faults exactly as a full replay would. The trunk
// keeps running afterwards; its next stores copy pages out of the frozen
// base.
func (s *Simulator) CaptureForkPoint() *checkpoint.ForkPoint {
	fp := &checkpoint.ForkPoint{
		Core:   s.Core.Snapshot(),
		Mem:    s.Mem.CowSnapshot(),
		Kernel: s.Kernel.Snapshot(),
	}
	if s.Engine != nil {
		fp.Window = s.Engine.CaptureWindow()
	}
	s.Cfg.Metrics.Counter("sim.fork.snapshots").Inc()
	return fp
}

// ForkFrom repoints the simulator at a fork point and arms it with a
// fresh fault list — the fork-server replacement for Restore. Memory
// adopts the frozen pages with an empty private overlay.
//
// A cold fork point (a trunk snapshot) starts the configured model cold:
// caches, micro-TLBs and the pipeline are reset in place rather than
// cloned (they hold no architectural state). When it lies inside a
// fault-injection window the detailed model starts immediately — the
// fast-forward prefix already happened on the trunk — otherwise
// fast-forward is re-armed exactly as after Restore.
//
// A warm walk point (CaptureWalkPoint) resumes the run that captured it:
// pipeline latches, predictor, cache contents and simulator flags come
// back as they were, so the child continues that run mid-flight. Warm
// points restore only into a simulator with the capturing one's
// configuration.
func (s *Simulator) ForkFrom(fp *checkpoint.ForkPoint, faults []core.Fault) {
	s.Mem.ForkFrom(fp.Mem)
	s.Core.RestoreSnapshot(fp.Core)
	s.Kernel.Restore(fp.Kernel)
	w := fp.Warm
	if s.Hier != nil {
		if w != nil && w.Caches != nil {
			s.Hier.Restore(w.Caches)
		} else {
			s.Hier.InvalidateAll()
		}
	}
	if s.Engine != nil {
		s.Engine.ResetWithWindow(faults, fp.Window) // also resets the taint tracker
	} else {
		s.observers.Taint.Reset()
	}
	if pr := s.observers.Profiler; pr != nil {
		pr.ResetStack() // the forked guest is mid-call-chain
	}
	s.observers.Flight.Reset() // nil-safe; the ring belongs to one experiment
	s.stopRequested = false
	s.interrupted.Store(false)
	switch {
	case w != nil:
		s.Mem.SetPorts(w.Ports)
		s.Model = s.newModel(ModelKind(w.Model))
		if w.Pipe != nil {
			s.pipe.Restore(w.Pipe)
		}
		s.ffActive, s.ffPending = w.FastForward, false // a pending switch never outlives its step
		s.switched = w.Switched
		s.WindowOpenInsts = w.WindowOpenInsts
	case fp.Window.Open():
		// Mid-window fork: the window-open edge that would end a
		// fast-forward prefix is already behind us, so run the configured
		// model from the first post-fork instruction.
		s.Model = s.newModel(s.Cfg.Model)
		s.switched = false
		s.ffActive, s.ffPending = false, false
		s.WindowOpenInsts = fp.Core.Insts - fp.WindowCommits()
	default:
		s.Model = s.newModel(s.Cfg.Model)
		s.switched = false
		s.WindowOpenInsts = 0
		s.armFastForward()
	}
	s.Cfg.Metrics.Counter("sim.fork.children").Inc()
}

// CaptureWalkPoint is CaptureForkPoint plus the microarchitectural state
// of the running model: a warm walk point, from which ForkFrom resumes
// this very run (latches, predictor, caches and all) under another fault
// list. Capture costs the cache sets used since the last cold fork, the
// pipeline latches and one predictor copy. Call it between steps.
func (s *Simulator) CaptureWalkPoint() *checkpoint.ForkPoint {
	ports := s.Mem.Ports()
	fp := s.CaptureForkPoint()
	s.Mem.SetPorts(ports) // freezing memory flushed them; this run goes on
	w := &checkpoint.Warm{
		Ports:           ports,
		Model:           s.Model.ModelName(),
		FastForward:     s.ffActive,
		Switched:        s.switched,
		WindowOpenInsts: s.WindowOpenInsts,
	}
	if pm, ok := s.Model.(*cpu.PipelinedModel); ok {
		w.Pipe = pm.Capture()
	}
	if s.Hier != nil {
		w.Caches = s.Hier.Capture()
	}
	fp.Warm = w
	return fp
}

// WalkToDue steps the configured model until some armed fault could act
// on the next step (core.Engine.StepsUntilDue) and returns that paused
// result with the fault's position in the engine's fault list. A run that
// ends first — exit, crash, watchdog, interrupt — returns its result and
// -1. The pause is invisible: Run or RunUntil afterwards continues
// exactly as a run that never paused.
func (s *Simulator) WalkToDue() (RunResult, int) {
	if s.Model == nil {
		return RunResult{Crashed: true, CrashCause: "no program loaded"}, -1
	}
	for {
		n, src := uint64(math.MaxUint64), -1
		if s.Engine != nil {
			n, src = s.Engine.StepsUntilDue()
		}
		if n == 0 {
			return s.finish(loopPaused), src
		}
		if why := s.loop(0, n); why != loopPaused {
			return s.finish(why), -1
		}
	}
}

// RunUntil is Run with an instruction bound: the simulation pauses once
// the core has committed at least insts instructions, returning with
// Paused set and all live state intact so the caller may capture a fork
// point or keep running. On the serial models (atomic, timing) the pause
// lands exactly at insts; the pipelined model may overshoot by the
// commits of its final step. All other stop conditions behave as in Run.
func (s *Simulator) RunUntil(insts uint64) RunResult {
	if s.Model == nil {
		return RunResult{Crashed: true, CrashCause: "no program loaded"}
	}
	if s.Core.Insts >= insts {
		return s.finish(loopPaused)
	}
	return s.finish(s.loop(insts, 0))
}
