// Package bbt is the basic-block translator: the gem5/QEMU "translated
// block" idea applied to the atomic fast path. While no fault can act —
// the fault-injection window is closed, the engine is quiescent with
// every fault exhausted and nothing in flight, or every armed fault's
// trigger lies beyond the block — and every attached observer takes
// whole blocks (cpu.BlockObserver), the same budget that gates the
// atomic model's stepFast, hot straight-line runs of guest text are
// fused into
// a pre-bound chain of Go closures, one closure per decoded instruction
// with its register indices and immediates resolved at translation time.
// Executing a block skips the per-instruction fetch, predecode lookup,
// port interpretation, execute-stage dispatch and commit epilogue
// entirely; only the memory system and the architectural register file
// are touched, so the result is bit-identical to the interpreter
// (enforced by the conformance suite's translated-vs-interpreted
// referee). Inside an open window a block also advances the engine's
// window counters by its committed count, and a block touching a
// register with outstanding fault taint is declined, so that register's
// first read or write reaches the engine through the interpreter.
//
// Blocks are cached keyed on (PC, text generation): any store that
// overlaps the declared text region — self-modifying code, store-value
// faults landing in text, checkpoint restores, fork adoption — bumps
// mem.Memory's generation counter and thereby invalidates every block at
// once, the same wholesale scheme the per-PC predecode cache uses. A
// store inside a block re-checks the generation at the instruction
// boundary, so even a block that overwrites itself bails out before
// executing a stale downstream instruction.
//
// The ROADMAP calls for the per-PC profiler's counts to seed hotness,
// but an attached profiler keeps translation off (it needs per-commit
// hooks), so a translated run never has one; the translator keeps its
// own direct-mapped hotness table over block-entry PCs instead.
package bbt

import (
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

const (
	blockBits = 10 // 1024 direct-mapped translated-block slots
	blockMask = 1<<blockBits - 1
	hotBits   = 12 // 4096 direct-mapped hotness counters
	hotMask   = 1<<hotBits - 1
	tagValid  = uint64(1) << 63

	// DefaultThreshold is how many dispatcher visits a PC needs before it
	// is translated. Block entry points in a hot loop reach it within the
	// first few iterations; cold code never pays compilation.
	DefaultThreshold = 8

	// maxBlockLen caps translated block length. Short blocks keep the
	// admission checks (instruction limit, scheduler slice budget) from
	// declining often near their boundaries.
	maxBlockLen = 32

	// maxChain bounds how many blocks one Exec call chains through, so
	// the run loop's interrupt poll (every 256 steps) keeps a bounded
	// worst-case latency.
	maxChain = 64
)

// opFn executes one translated instruction against the translator's
// bound core. It returns false to end the block early: either a trap
// (the instruction did not commit) or a text-generation change detected
// after a store (the instruction committed but downstream translations
// are stale). The closure is responsible for leaving the architectural
// state exactly as the interpreter would at that boundary.
type opFn func(t *Translator) bool

// block is one translated basic block: straight-line closures ending at
// a branch (which assigns the next PC itself) or at a fallthrough
// boundary (end holds the successor PC). n == 0 marks a poisoned entry:
// the PC starts with a PAL/illegal/untranslatable instruction and must
// always take the interpreter.
type block struct {
	tag uint64 // pc | tagValid
	gen uint64 // mem text generation at translation time
	n   uint64 // instructions in the block; 0 = poisoned
	end uint64 // fallthrough successor PC; 0 when a branch terminator sets it
	ops []opFn

	// Registers the block's instructions read or write (isa.RegPorts
	// masks, integer and FP files): a block touching a register the fault
	// engine watches must leave it to the interpreter.
	useInt, useFP uint32
}

type hotEntry struct {
	tag   uint64
	count uint32
}

// Stats are the translator's observability counters, exposed as the
// cpu.bbt.* metrics group.
type Stats struct {
	Compiled      uint64 // blocks translated
	Poisoned      uint64 // entry PCs marked untranslatable
	Hits          uint64 // translated block executions
	Insts         uint64 // instructions retired inside translated blocks
	Invalidations uint64 // stale translations discarded (text generation moved)
	Fallbacks     uint64 // interpreter fallbacks while translation was attached
	// WatchFallbacks counts blocks declined because they touch a register
	// with outstanding fault taint.
	WatchFallbacks uint64
}

type exitKind uint8

const (
	exitNone exitKind = iota
	exitTrap          // an op trapped: it ticked but did not commit
	exitSMC           // a store moved the text generation: op committed, bail
)

// Translator implements cpu.BlockRunner for one core.
type Translator struct {
	c    *cpu.Core
	arch *cpu.Arch
	mem  *mem.Memory

	// Threshold is the hotness count that triggers translation.
	Threshold uint32

	// Stats counters (plain fields; metrics read them as pull-collectors).
	Stats Stats

	// limit is an absolute committed-instruction ceiling translated blocks
	// must not cross (0 = none). The simulator arms it with the min of the
	// watchdog, the fast-forward switch point and any RunUntil bound, so
	// every stop/pause/switch lands on exactly the instruction count the
	// interpreter would have produced.
	limit uint64

	gen  uint64   // text generation of the block being executed
	exit exitKind // why the current block ended early

	schedSrc cpu.Scheduler      // core scheduler the binding below reflects
	sched    cpu.BatchScheduler // batch view of schedSrc, nil if absent
	schedOff bool               // scheduler attached but cannot batch: no translation

	blocks [1 << blockBits]block
	hot    [1 << hotBits]hotEntry
	// ports holds, slot for slot, the register ports of each block's
	// instructions, for block observers. It is apart from blocks, whose
	// entries stay one cache line each.
	ports [1 << blockBits][]isa.RegPorts
}

var _ cpu.BlockRunner = (*Translator)(nil)

// New builds a translator bound to core c. Attach it with c.BBT = t.
func New(c *cpu.Core) *Translator {
	return &Translator{c: c, arch: &c.Arch, mem: c.Mem, Threshold: DefaultThreshold}
}

// SetLimit arms an absolute committed-instruction ceiling: no block is
// admitted whose completion would push Core.Insts past limit (0 = none).
func (t *Translator) SetLimit(limit uint64) { t.limit = limit }

// NoteFallback implements cpu.BlockRunner: the atomic model reports each
// interpreted step taken while translation is attached — a fault can
// still act or an observer needs per-instruction hooks — so the bailout
// behavior is observable (a campaign with taint and flight attached must
// show zero translated instructions and a growing fallback count).
func (t *Translator) NoteFallback() { t.Stats.Fallbacks++ }

// Exec implements cpu.BlockRunner: it runs translated blocks starting at
// the core's current PC, chaining across taken branches, and returns
// whether any guest instruction was executed. A false return means the
// interpreter must execute the current instruction (and the visit was
// counted toward hotness). A block longer than what is left of budget,
// the Injector.FastPath budget at entry, is declined: an armed fault
// could come due inside it. Blocks touching a register in the watch
// masks are declined too: the interpreter reports that traffic to the
// fault engine. The masks hold for the whole chain, since only the
// register hooks the interpreter calls can clear a watch bit.
func (t *Translator) Exec(budget uint64, watchInt, watchFP uint32) bool {
	c := t.c
	if c.Stopped {
		return false
	}
	if c.Sched != t.schedSrc {
		// The kernel attaches the scheduler at Boot, after the translator
		// was built; rebind lazily whenever it changes.
		t.bindSched()
	}
	if t.schedOff {
		return false
	}
	executed := false
	for n := 0; n < maxChain; n++ {
		pc := t.arch.PC
		gen := t.mem.TextGen()
		b := &t.blocks[(pc>>2)&blockMask]
		if b.tag != pc|tagValid || b.gen != gen {
			if executed {
				return true
			}
			if b.tag == pc|tagValid {
				// Same PC, older text generation: the translation is stale.
				t.Stats.Invalidations++
				b.tag = 0
			}
			if !t.noteHot(pc) {
				return false
			}
			t.compile(pc, gen)
			if b.tag != pc|tagValid || b.n == 0 {
				return executed
			}
		}
		if b.n == 0 {
			// Poisoned: this PC always takes the interpreter (PAL, illegal,
			// outside the text region).
			return executed
		}
		// Admission: the block must not cross the instruction ceiling or
		// run into an armed fault's trigger, and its commits must fit
		// inside the scheduler's remaining slice so per-commit
		// MaybeSwitch calls could never have fired mid-block.
		if t.limit != 0 && c.Insts+b.n > t.limit || b.n > budget {
			t.Stats.Fallbacks++
			return executed
		}
		if t.sched != nil && b.n >= t.sched.SliceBudget() {
			t.Stats.Fallbacks++
			return executed
		}
		if b.useInt&watchInt|b.useFP&watchFP != 0 {
			t.Stats.WatchFallbacks++
			return executed
		}
		t.run(b)
		budget -= b.n // each stage counter moved by at most b.n
		executed = true
		if c.Stopped || t.exit != exitNone {
			return true
		}
	}
	return executed
}

// bindSched resolves the core's scheduler into its batch-accounting
// view. A scheduler that cannot batch disables translation outright:
// per-commit preemption cannot be replicated for a fused block.
func (t *Translator) bindSched() {
	t.schedSrc = t.c.Sched
	t.sched, _ = t.c.Sched.(cpu.BatchScheduler)
	t.schedOff = t.c.Sched != nil && t.sched == nil
}

// noteHot counts a dispatcher visit at pc and reports whether it just
// crossed the translation threshold.
func (t *Translator) noteHot(pc uint64) bool {
	h := &t.hot[(pc>>2)&hotMask]
	if h.tag != pc {
		h.tag, h.count = pc, 1
		return false
	}
	h.count++
	if h.count < t.Threshold {
		return false
	}
	h.count = 0
	return true
}

// run executes one translated block and settles the per-instruction
// bookkeeping the interpreter would have done — ticks, committed
// instructions, sequence numbers, scheduler slice, the fault engine's
// window counters and tick clock — in one batch, with the early-exit
// cases (trap, text-generation bail) accounted exactly: a trapping
// instruction consumes a tick and a sequence number and counts as
// executed but never commits, matching stepFast. Blocks hold no PAL
// instruction, so the window cannot open or close mid-block.
func (t *Translator) run(b *block) {
	t.gen = b.gen
	t.exit = exitNone
	ops := b.ops
	i := 0
	for ; i < len(ops); i++ {
		if !ops[i](t) {
			break
		}
	}
	c := t.c
	executed, committed := b.n, b.n
	switch {
	case i < len(ops):
		executed, committed = uint64(i)+1, uint64(i)
		if t.exit == exitSMC {
			committed++ // the generation-moving store itself committed
		}
	case b.end != 0:
		t.arch.PC = b.end
	}
	c.Ticks += executed
	c.Insts += committed
	c.BumpSeq(executed)
	if t.sched != nil && committed > 0 {
		t.sched.ConsumeSlice(committed)
	}
	if c.FI != nil {
		c.FI.Retire(executed, executed, executed, committed, c.Ticks)
	}
	for _, o := range c.Observers {
		o.(cpu.BlockObserver).OnBlock(t.ports[(b.tag>>2)&blockMask][:committed], t.arch)
	}
	t.Stats.Hits++
	t.Stats.Insts += committed
}

// trapAt stops the core exactly as the interpreter would mid-step: the
// architectural PC still names the trapping instruction.
func (t *Translator) trapAt(pc uint64, tr *cpu.Trap) bool {
	t.arch.PC = pc
	t.c.Stop(tr)
	t.exit = exitTrap
	return false
}

// smcBail ends the block after a committed store moved the text
// generation: execution resumes at the next instruction through the
// interpreter, which refetches the (possibly rewritten) bytes.
func (t *Translator) smcBail(nextPC uint64) bool {
	t.arch.PC = nextPC
	t.exit = exitSMC
	return false
}

// RegisterMetrics exposes the translator's counters as the cpu.bbt.*
// metrics group on the registry (nil-safe, pull-collectors only).
func (t *Translator) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.RegisterFunc("cpu.bbt.blocks_compiled", func() float64 { return float64(t.Stats.Compiled) })
	r.RegisterFunc("cpu.bbt.blocks_poisoned", func() float64 { return float64(t.Stats.Poisoned) })
	r.RegisterFunc("cpu.bbt.block_hits", func() float64 { return float64(t.Stats.Hits) })
	r.RegisterFunc("cpu.bbt.insts_translated", func() float64 { return float64(t.Stats.Insts) })
	r.RegisterFunc("cpu.bbt.invalidations", func() float64 { return float64(t.Stats.Invalidations) })
	r.RegisterFunc("cpu.bbt.fallbacks", func() float64 { return float64(t.Stats.Fallbacks) })
	r.RegisterFunc("cpu.bbt.watch_fallbacks", func() float64 { return float64(t.Stats.WatchFallbacks) })
}
