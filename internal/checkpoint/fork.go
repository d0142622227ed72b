package checkpoint

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// ForkPoint is the in-process, copy-on-write analogue of State for
// fork-server campaigns. Where State deep-copies memory and deliberately
// omits engine state (fi_read_init_all resets it on restore), a ForkPoint
// shares clean pages with the trunk by reference and must carry the
// engine's window bookkeeping: forks are taken mid-window, after the
// trunk has executed part of the fault-injection window, so the child
// inherits the stage counters that time its faults. ForkPoints live only
// in process memory — they hold shared page maps and are not serialized.
type ForkPoint struct {
	Core   cpu.CoreSnapshot
	Mem    *mem.CowSnapshot
	Kernel kernel.Snapshot
	Window core.WindowState

	// Warm, when set, makes this a warm walk point: the microarchitectural
	// state of the detailed run that captured it, so a fork resumes that
	// run mid-flight instead of starting a cold pipeline. It is only valid
	// in a simulator with the capturing one's configuration. Trunk
	// snapshots are cold (nil).
	Warm *Warm
}

// Warm is the microarchitectural half of a walk point: the model that was
// stepping and its state, the caches, and the simulator's fast-forward
// and model-switch flags. The engine window lives in ForkPoint.Window.
type Warm struct {
	Model  string         // ModelName of the stepping model
	Pipe   *cpu.PipeState // pipelined model only
	Caches *mem.HierarchyState
	Ports  mem.Ports // micro-TLBs: see mem.Ports for why they matter

	FastForward     bool // the atomic fast-forward prefix was running
	Switched        bool // the post-resolve switch to atomic happened
	WindowOpenInsts uint64
}

// ForkPoint wraps the checkpoint as a cold fork point with a closed
// fault-injection window, its memory declaring [textLo, textHi) as text.
// The point adopts the State's pages by reference
// (mem.CowFromSnapshot): they become its frozen base, so they must not
// be mutated afterwards.
func (s *State) ForkPoint(textLo, textHi uint64) *ForkPoint {
	return &ForkPoint{Core: s.Core, Mem: mem.CowFromSnapshot(s.Mem, textLo, textHi), Kernel: s.Kernel}
}

// WindowCommits returns the committed-instruction progress of the open
// fault-injection window at the fork point (0 when no window is open):
// an experiment whose fault fires at window instruction W can only fork
// from points where this is still below W.
func (fp *ForkPoint) WindowCommits() uint64 {
	var max uint64
	for _, t := range fp.Window.Threads {
		if t.Commits > max {
			max = t.Commits
		}
	}
	return max
}

// ApproxBytes estimates the heap uniquely attributable to this fork
// point: the incrementally dirtied pages plus the fixed-size CPU and
// kernel snapshots.
func (fp *ForkPoint) ApproxBytes() uint64 {
	n := uint64(len(fp.Kernel.Console)) + 512
	if fp.Mem != nil {
		n += fp.Mem.ApproxBytes()
	}
	return n
}
