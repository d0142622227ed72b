package conformance

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// PerturbSpec deterministically corrupts one model's architectural state
// after a given number of committed instructions — the "intentionally
// broken model" used to validate that the harness actually catches
// divergences.
type PerturbSpec struct {
	Model sim.ModelKind
	After uint64 // commit count after which the corruption is applied once
	Reg   int    // integer register to corrupt
	Bit   int    // bit to flip
}

// Config parameterizes a lockstep run.
type Config struct {
	// SyncInterval compares architectural state every N committed
	// instructions in addition to program exit (0 = exit only).
	SyncInterval uint64
	// Perturb, when non-nil, injects a synthetic model bug.
	Perturb *PerturbSpec
}

// lockstepRuns is the fixed run set. The atomic model is the comparison
// reference; the cold atomic run interprets every instruction with the
// decode caches, predecode, micro-TLBs, MRU line and stepFast switched
// off, so random programs referee the fast path against the interpreter.
var lockstepRuns = []struct {
	name string
	cfg  sim.Config
}{
	{string(sim.ModelAtomic), sim.Config{Model: sim.ModelAtomic}},
	{string(sim.ModelTiming), sim.Config{Model: sim.ModelTiming}},
	{string(sim.ModelPipelined), sim.Config{Model: sim.ModelPipelined}},
	{"atomic-cold", sim.Config{Model: sim.ModelAtomic, DisableFastPath: true}},
}

const (
	// maxSteps bounds each model's step count — cycles for the pipelined
	// model — so a divergent runaway loop is reported, not hung on.
	maxSteps = 4_000_000
	// traceWindow is how many recently committed instructions each model
	// retains for the divergence report.
	traceWindow = 16
)

// TraceEntry is one committed instruction in a model's recent history.
type TraceEntry struct {
	N    uint64 // commit index (1-based)
	PC   uint64
	Word isa.Word
}

// traceRing retains the last N committed instructions.
type traceRing struct {
	buf  []TraceEntry
	next uint64 // total commits recorded
}

func newTraceRing(n int) *traceRing { return &traceRing{buf: make([]TraceEntry, 0, n)} }

func (r *traceRing) record(pc uint64, in isa.Inst) {
	r.next++
	e := TraceEntry{N: r.next, PC: pc, Word: in.Raw}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	copy(r.buf, r.buf[1:])
	r.buf[len(r.buf)-1] = e
}

// Entries returns the retained trace oldest-first.
func (r *traceRing) Entries() []TraceEntry { return r.buf }

// modelRun is one model's simulator plus its lockstep bookkeeping.
type modelRun struct {
	name  string
	sim   *sim.Simulator
	model cpu.Model
	trace *traceRing
	steps uint64
	hung  bool
}

// stepUntil advances the model until it stops or reaches target committed
// instructions; every model commits at most one instruction per step, so
// the loop lands exactly on the target.
func (r *modelRun) stepUntil(target uint64) {
	c := r.sim.Core
	for !c.Stopped && c.Insts < target {
		if r.steps >= maxSteps {
			r.hung = true
			return
		}
		r.steps++
		if !r.model.Step() {
			return
		}
	}
}

// perturbModel wraps a cpu.Model and flips one register bit once the
// commit count passes spec.After.
type perturbModel struct {
	cpu.Model
	core *cpu.Core
	spec PerturbSpec
	done bool
}

func (p *perturbModel) Step() bool {
	ok := p.Model.Step()
	if !p.done && p.core.Insts >= p.spec.After {
		p.core.Arch.R[p.spec.Reg&31] ^= 1 << (uint(p.spec.Bit) & 63)
		p.done = true
	}
	return ok
}

// RunLockstep runs prog on every model of the run set in lockstep and returns
// the first divergence found, or nil if all models agree bit-exactly on
// every sync point and on the final architectural state, memory image,
// console output, exit status and retired-instruction count.
func RunLockstep(prog *asm.Program, cfg Config) (*Divergence, error) {
	runs := make([]*modelRun, len(lockstepRuns))
	for i, lr := range lockstepRuns {
		s := sim.New(lr.cfg)
		if err := s.Load(prog); err != nil {
			return nil, fmt.Errorf("conformance: load on %s: %w", lr.name, err)
		}
		r := &modelRun{name: lr.name, sim: s, model: s.Model, trace: newTraceRing(traceWindow)}
		s.Core.Observers = append(s.Core.Observers, cpu.TraceFunc(r.trace.record))
		if cfg.Perturb != nil && string(cfg.Perturb.Model) == lr.name {
			r.model = &perturbModel{Model: s.Model, core: s.Core, spec: *cfg.Perturb}
		}
		runs[i] = r
	}

	target := cfg.SyncInterval
	if cfg.SyncInterval == 0 {
		target = math.MaxUint64
	}
	for {
		for _, r := range runs {
			r.stepUntil(target)
		}
		if d := checkHang(runs); d != nil {
			return d, nil
		}
		stopped := 0
		for _, r := range runs {
			if r.sim.Core.Stopped {
				stopped++
			}
		}
		if stopped == len(runs) {
			return compareFinal(runs), nil
		}
		if stopped > 0 {
			// Some models exited; the rest must stop at the same retired
			// count or they have diverged.
			var maxFinal uint64
			for _, r := range runs {
				if r.sim.Core.Stopped && r.sim.Core.Insts > maxFinal {
					maxFinal = r.sim.Core.Insts
				}
			}
			for _, r := range runs {
				if !r.sim.Core.Stopped {
					r.stepUntil(maxFinal + 1)
				}
			}
			if d := checkHang(runs); d != nil {
				return d, nil
			}
			return compareFinal(runs), nil
		}
		// All still running, all at exactly `target` commits.
		if d := compareSync(runs, target); d != nil {
			return d, nil
		}
		target += cfg.SyncInterval
	}
}

// checkHang reports a divergence if any model exhausted its step budget.
func checkHang(runs []*modelRun) *Divergence {
	ref := runs[0]
	for _, r := range runs[1:] {
		if r.hung != ref.hung {
			a, b := ref, r
			if a.hung {
				a, b = b, a
			}
			return newDivergence(a, b, "hang",
				fmt.Sprintf("%s exceeded its step budget at insts=%d while %s was at insts=%d",
					b.name, b.sim.Core.Insts, a.name, a.sim.Core.Insts))
		}
	}
	if ref.hung {
		return newDivergence(ref, ref, "hang",
			fmt.Sprintf("all models exceeded the step budget (insts=%d) — generated program did not terminate", ref.sim.Core.Insts))
	}
	return nil
}

// compareSync compares mid-run architectural state at a sync boundary.
// Memory is deliberately NOT compared here: the pipelined model performs
// stores in its MEM stage, before commit, so an in-flight store may have
// written memory the reference model has not reached yet.
func compareSync(runs []*modelRun, at uint64) *Divergence {
	ref := runs[0]
	for _, r := range runs[1:] {
		if d := compareArch(ref, r, at); d != nil {
			return d
		}
	}
	return nil
}

// compareArch compares the committed register state, PC and PCBB.
func compareArch(a, b *modelRun, at uint64) *Divergence {
	aa, ba := &a.sim.Core.Arch, &b.sim.Core.Arch
	for i := 0; i < isa.NumRegs; i++ {
		if aa.R[i] != ba.R[i] {
			return newDivergence(a, b, "register",
				fmt.Sprintf("R%d (%s): %s=%#x %s=%#x", i, isa.Reg(i), a.name, aa.R[i], b.name, ba.R[i])).at(at)
		}
	}
	for i := 0; i < isa.NumRegs; i++ {
		if math.Float64bits(aa.F[i]) != math.Float64bits(ba.F[i]) {
			return newDivergence(a, b, "fp-register",
				fmt.Sprintf("F%d: %s=%#x (%g) %s=%#x (%g)", i,
					a.name, math.Float64bits(aa.F[i]), aa.F[i],
					b.name, math.Float64bits(ba.F[i]), ba.F[i])).at(at)
		}
	}
	if aa.PC != ba.PC {
		return newDivergence(a, b, "pc",
			fmt.Sprintf("PC: %s=%#x %s=%#x", a.name, aa.PC, b.name, ba.PC)).at(at)
	}
	if aa.PCBB != ba.PCBB {
		return newDivergence(a, b, "pcbb",
			fmt.Sprintf("PCBB: %s=%#x %s=%#x", a.name, aa.PCBB, b.name, ba.PCBB)).at(at)
	}
	return nil
}

// compareFinal compares complete end-of-run state. After a trap only the
// trap kind and retired count are compared (a trapping store in the
// pipelined MEM stage may have reached memory before the squash).
func compareFinal(runs []*modelRun) *Divergence {
	ref := runs[0]
	for _, r := range runs[1:] {
		ca, cb := ref.sim.Core, r.sim.Core
		if ca.Insts != cb.Insts {
			return newDivergence(ref, r, "retired",
				fmt.Sprintf("retired instructions: %s=%d %s=%d", ref.name, ca.Insts, r.name, cb.Insts))
		}
		ta, tb := trapKind(ca), trapKind(cb)
		if ta != tb {
			return newDivergence(ref, r, "trap",
				fmt.Sprintf("trap: %s=%q %s=%q", ref.name, ta, r.name, tb))
		}
		if ta != "" {
			continue
		}
		if ca.ExitStatus != cb.ExitStatus {
			return newDivergence(ref, r, "exit",
				fmt.Sprintf("exit status: %s=%d %s=%d", ref.name, ca.ExitStatus, r.name, cb.ExitStatus))
		}
		if d := compareArch(ref, r, ca.Insts); d != nil {
			return d
		}
		if consA, consB := ref.sim.Kernel.Console(), r.sim.Kernel.Console(); consA != consB {
			return newDivergence(ref, r, "console",
				fmt.Sprintf("console: %s=%q %s=%q", ref.name, consA, r.name, consB))
		}
		if addr, va, vb, ok := diffMem(ref.sim.Mem.Snapshot(), r.sim.Mem.Snapshot()); ok {
			return newDivergence(ref, r, "memory",
				fmt.Sprintf("memory @%#x: %s=%#02x %s=%#02x", addr, ref.name, va, r.name, vb))
		}
	}
	return nil
}

func trapKind(c *cpu.Core) string {
	if c.Trap == nil {
		return ""
	}
	return c.Trap.Kind.String()
}

// diffMem finds the first differing byte between two memory snapshots.
// Pages absent from one snapshot compare as zero: speculative execution
// legitimately touches (and thus allocates) pages the functional model
// never reads.
func diffMem(a, b mem.Snapshot) (addr uint64, va, vb byte, diff bool) {
	bases := make(map[uint64]struct{}, len(a.Pages)+len(b.Pages))
	for base := range a.Pages {
		bases[base] = struct{}{}
	}
	for base := range b.Pages {
		bases[base] = struct{}{}
	}
	sorted := make([]uint64, 0, len(bases))
	for base := range bases {
		sorted = append(sorted, base)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, base := range sorted {
		pa, pb := a.Pages[base], b.Pages[base]
		for i := 0; i < mem.PageSize; i++ {
			var x, y byte
			if pa != nil {
				x = pa[i]
			}
			if pb != nil {
				y = pb[i]
			}
			if x != y {
				return base + uint64(i), x, y, true
			}
		}
	}
	return 0, 0, 0, false
}
