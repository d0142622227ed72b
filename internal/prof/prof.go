// Package prof is the guest-program profiler: an exact per-PC account
// of retired instructions, cycles, cache misses, branch mispredicts and
// pipeline stall causes, collected as a cpu.Observer of the CPU
// models' commit stream and symbolized against the program's function
// symbol table. It plays the role of gem5's per-PC m5out statistics
// for the simulated application, with one addition gem5 lacks: per-PC
// fault-injection outcome attribution (see Attribution in
// internal/campaign).
//
// The profiler is hot-loop safe in the same way the obs registry is:
// a detached profiler is never touched (the core's observer hooks sit
// behind one emptiness branch each), and an attached profiler only
// performs array-indexed atomic adds, so live HTTP readers can
// snapshot it while a simulation runs without stopping it.
package prof

import (
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// StallCause classifies why the pipelined model failed to commit an
// instruction on a given cycle. The causes follow the order of the
// cpu.EventStall* events.
type StallCause int

// Stall causes, in render order.
const (
	StallFetch  StallCause = iota // front end waiting on L1I / redirect
	StallMem                      // memory stage busy on a data access
	StallSquash                   // refilling after a mispredict squash
	StallDrain                    // serialization / pipeline drain
	NumStallCauses
)

// String names a stall cause for reports.
func (s StallCause) String() string {
	switch s {
	case StallFetch:
		return "fetch"
	case StallMem:
		return "mem"
	case StallSquash:
		return "squash"
	case StallDrain:
		return "drain"
	default:
		return "?"
	}
}

// Sample is the per-PC counter block. All fields are updated with
// atomic adds on the simulation thread and read with atomic loads by
// snapshotters, so a live /profile scrape never tears a counter.
type Sample struct {
	Insts      uint64 // retired instructions
	Cycles     uint64 // ticks attributed to this PC (sums to total ticks)
	IMisses    uint64 // L1I misses fetching this PC
	DMisses    uint64 // L1D misses by this PC's loads/stores
	Mispredict uint64 // branch mispredicts resolved at this PC

	Stalls [NumStallCauses]uint64 // cycles lost while this PC was oldest in flight
}

// Profiler accumulates per-PC samples for one core. Create one per
// simulator; merge across campaign runners with Merge.
type Profiler struct {
	textBase uint64
	dense    []Sample // indexed by (pc-textBase)/4
	syms     asm.SymbolTable

	mu       sync.Mutex         // guards sparse map shape (values still atomic)
	sparse   map[uint64]*Sample // PCs outside [textBase, textBase+4*len)
	lastTick uint64             // commit-to-commit cycle attribution state

	stack *StackTree
}

// New builds a profiler covering textWords instructions starting at
// textBase. PCs outside the window (none in practice — the kernel runs
// guest text only) fall into a sparse overflow map.
func New(textBase uint64, textWords int) *Profiler {
	return &Profiler{
		textBase: textBase,
		dense:    make([]Sample, textWords),
		sparse:   make(map[uint64]*Sample),
		stack:    newStackTree(),
	}
}

// ForProgram builds a profiler sized and symbolized for a program.
func ForProgram(p *asm.Program) *Profiler {
	pr := New(p.TextBase, len(p.Text))
	pr.SetSymbols(p.Symbols())
	return pr
}

// SetSymbols attaches the symbol table used by reports and by the
// shadow call stack. Safe to call before the simulation starts.
func (p *Profiler) SetSymbols(t asm.SymbolTable) {
	p.syms = t
	p.stack.syms = t
}

// Symbols returns the attached symbol table (possibly nil).
func (p *Profiler) Symbols() asm.SymbolTable { return p.syms }

// sample returns the counter block for pc, allocating a sparse entry
// for out-of-window PCs (a faulted PC can point anywhere).
func (p *Profiler) sample(pc uint64) *Sample {
	if pc >= p.textBase {
		if i := (pc - p.textBase) / 4; i < uint64(len(p.dense)) {
			return &p.dense[i]
		}
	}
	p.mu.Lock()
	s := p.sparse[pc]
	if s == nil {
		s = new(Sample)
		p.sparse[pc] = s
	}
	p.mu.Unlock()
	return s
}

// OnCommit implements cpu.Observer: it records one retired instruction
// at c.PC, attributing every cycle since the previous commit to it (so
// per-PC cycles sum exactly to total ticks: stall cycles land on the
// instruction that was waiting to commit), samples the shadow call
// stack, and follows the call/return edges that maintain it.
func (p *Profiler) OnCommit(c *cpu.Commit) {
	s := p.sample(c.PC)
	atomic.AddUint64(&s.Insts, 1)
	if c.Ticks < p.lastTick {
		p.lastTick = c.Ticks // checkpoint restore rewound the clock
	}
	if d := c.Ticks - p.lastTick; d > 0 {
		atomic.AddUint64(&s.Cycles, d)
		p.lastTick = c.Ticks
	}
	p.OnStackSample(c.PC)
	switch in := c.In; {
	case in.Kind == isa.KindBSR && c.Out.Taken:
		p.OnCall(c.Out.Target)
	case in.Kind == isa.KindJMP && in.Hint == isa.HintJSR:
		p.OnCall(c.Out.Target)
	case in.Kind == isa.KindJMP && in.Hint == isa.HintRET:
		p.OnReturn()
	}
}

// OnSquash implements cpu.Observer; squashed instructions are never
// charged.
func (p *Profiler) OnSquash(uint64) {}

// OnEvent implements cpu.Observer: an L1I miss fetching pc, an L1D
// miss by pc, a branch mispredict resolved at pc, or one stalled cycle
// charged to the oldest in-flight pc (pipelined model only; cycle
// attribution still comes from OnCommit — stall counters are a
// diagnostic breakdown).
func (p *Profiler) OnEvent(ev cpu.Event, pc uint64) {
	s := p.sample(pc)
	switch ev {
	case cpu.EventIMiss:
		atomic.AddUint64(&s.IMisses, 1)
	case cpu.EventDMiss:
		atomic.AddUint64(&s.DMisses, 1)
	case cpu.EventMispredict:
		atomic.AddUint64(&s.Mispredict, 1)
	default:
		cause := StallCause(ev - cpu.EventStallFetch)
		if cause >= NumStallCauses {
			cause = StallDrain
		}
		atomic.AddUint64(&s.Stalls[cause], 1)
	}
}

// OnCall pushes callee onto the shadow call stack (BSR/JSR commit).
func (p *Profiler) OnCall(callee uint64) { p.stack.push(callee) }

// OnReturn pops the shadow call stack (RET commit).
func (p *Profiler) OnReturn() { p.stack.pop() }

// OnStackSample charges one retired instruction to the current shadow
// stack.
func (p *Profiler) OnStackSample(pc uint64) { p.stack.sample(pc) }

// ResetStack clears shadow-stack state (checkpoint restore lands the
// guest mid-call-chain; the tree keeps prior samples but re-roots).
func (p *Profiler) ResetStack() { p.stack.reset() }
