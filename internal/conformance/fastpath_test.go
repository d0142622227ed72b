package conformance

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// These tests pin the hot-path optimizations (decoded-instruction caches,
// memory TLB fast path, atomic fast step, fast-forward campaigns) to the
// fully-hooked slow path: same workloads, same config, one run with the
// fast machinery and one with Config.DisableFastPath, compared bit for
// bit. Any divergence is an optimization bug by definition.

// loadSim builds and loads a simulator for w.
func loadSim(t *testing.T, w *workloads.Workload, cfg sim.Config) *sim.Simulator {
	t.Helper()
	p, err := w.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", w.Name, err)
	}
	s := sim.New(cfg)
	if err := s.Load(p); err != nil {
		t.Fatalf("%s: load: %v", w.Name, err)
	}
	return s
}

// runWorkload runs w to completion on model and returns the simulator.
func runWorkload(t *testing.T, w *workloads.Workload, cfg sim.Config) *sim.Simulator {
	t.Helper()
	s := loadSim(t, w, cfg)
	r := s.Run()
	if r.Hung || r.Interrupted {
		t.Fatalf("%s: did not finish: %+v", w.Name, r)
	}
	return s
}

// compareMachines asserts two finished simulators reached bit-identical
// architectural end states (FP registers compared as raw bits, so NaNs
// left by a faulted run compare equal to themselves).
func compareMachines(t *testing.T, label string, a, b *sim.Simulator) {
	t.Helper()
	if !a.Core.Arch.BitsEqual(&b.Core.Arch) {
		t.Errorf("%s: architectural state diverged", label)
	}
	if a.Core.Insts != b.Core.Insts || a.Core.Ticks != b.Core.Ticks {
		t.Errorf("%s: counters diverged: insts %d vs %d, ticks %d vs %d",
			label, a.Core.Insts, b.Core.Insts, a.Core.Ticks, b.Core.Ticks)
	}
	if a.Core.ExitStatus != b.Core.ExitStatus {
		t.Errorf("%s: exit status %d vs %d", label, a.Core.ExitStatus, b.Core.ExitStatus)
	}
	if ca, cb := a.Kernel.Console(), b.Kernel.Console(); ca != cb {
		t.Errorf("%s: console output diverged: %q vs %q", label, ca, cb)
	}
	if _, total := mem.DiffSnapshots(a.Mem.Snapshot(), b.Mem.Snapshot(), 4); total != 0 {
		t.Errorf("%s: %d bytes of memory diverged", label, total)
	}
}

// TestFastPathArchIdentity runs the paper's six workloads on every CPU
// model with the fast paths on (the default) and off, with the fault
// engine attached but idle — the campaign-realistic configuration. The
// pure no-hook run exercises the atomic fast step, both decode caches
// and the memory TLB; the end states must be indistinguishable.
func TestFastPathArchIdentity(t *testing.T) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		for _, model := range []sim.ModelKind{sim.ModelAtomic, sim.ModelTiming, sim.ModelPipelined} {
			label := fmt.Sprintf("%s/%s", w.Name, model)
			fast := runWorkload(t, w, sim.Config{Model: model, EnableFI: true, MaxInsts: 200_000_000})
			slow := runWorkload(t, w, sim.Config{Model: model, EnableFI: true, MaxInsts: 200_000_000,
				DisableFastPath: true})
			compareMachines(t, label, fast, slow)
		}
	}
}

// traceHash folds the committed (pc, raw word) stream into a hash plus a
// count — a whole-run golden trace in O(1) memory.
type traceHash struct {
	n uint64
	h uint64
}

func (th *traceHash) fn(pc uint64, in isa.Inst) {
	h := fnv.New64a()
	var buf [12]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(pc >> (8 * uint(i)))
	}
	for i := 0; i < 4; i++ {
		buf[8+i] = byte(uint32(in.Raw) >> (8 * uint(i)))
	}
	h.Write(buf[:])
	th.n++
	th.h = th.h*0x100000001b3 ^ h.Sum64()
}

// TestFastPathTraceAndProfileIdentity attaches the execution tracer and
// the per-PC profiler — hook configurations that take the slow step but
// still ride the decode caches and memory fast path — and demands
// identical golden traces and identical per-PC profiles (instructions,
// cycles, misses, mispredicts, stalls) with the caches on and off.
func TestFastPathTraceAndProfileIdentity(t *testing.T) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		for _, model := range []sim.ModelKind{sim.ModelAtomic, sim.ModelPipelined} {
			label := fmt.Sprintf("%s/%s", w.Name, model)
			run := func(disable bool) (*sim.Simulator, *traceHash) {
				th := &traceHash{}
				s := sim.New(sim.Config{Model: model, EnableFI: true, MaxInsts: 200_000_000,
					EnableProfiler: true, DisableFastPath: disable})
				p, err := w.Build()
				if err != nil {
					t.Fatalf("%s: build: %v", label, err)
				}
				if err := s.Load(p); err != nil {
					t.Fatalf("%s: load: %v", label, err)
				}
				s.Core.TraceFn = th.fn
				if r := s.Run(); r.Hung || r.Interrupted {
					t.Fatalf("%s: did not finish: %+v", label, r)
				}
				return s, th
			}
			fast, fastTrace := run(false)
			slow, slowTrace := run(true)
			compareMachines(t, label, fast, slow)
			if *fastTrace != *slowTrace {
				t.Errorf("%s: golden trace diverged: %d/%x vs %d/%x",
					label, fastTrace.n, fastTrace.h, slowTrace.n, slowTrace.h)
			}
			fp, sp := fast.Profiler().Snapshot(), slow.Profiler().Snapshot()
			if fp.TotalInsts != sp.TotalInsts || fp.TotalCycles != sp.TotalCycles {
				t.Errorf("%s: profile totals diverged: %d/%d vs %d/%d",
					label, fp.TotalInsts, fp.TotalCycles, sp.TotalInsts, sp.TotalCycles)
			}
			if !reflect.DeepEqual(fp.PCs, sp.PCs) {
				t.Errorf("%s: per-PC profile diverged (%d vs %d rows)", label, len(fp.PCs), len(sp.PCs))
			}
		}
	}
}

// TestFastForwardGoldenIdentity runs a fault-free pipelined simulation
// with and without the fast-forward prefix. The prefix runs on the
// atomic model, so cycle counts legitimately differ; everything
// architectural — registers, memory, console, committed instructions,
// golden trace — must not.
func TestFastForwardGoldenIdentity(t *testing.T) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		run := func(ff bool) (*sim.Simulator, *traceHash) {
			th := &traceHash{}
			s := sim.New(sim.Config{Model: sim.ModelPipelined, EnableFI: true,
				MaxInsts: 200_000_000, FastForward: ff})
			p, err := w.Build()
			if err != nil {
				t.Fatalf("%s: build: %v", w.Name, err)
			}
			if err := s.Load(p); err != nil {
				t.Fatalf("%s: load: %v", w.Name, err)
			}
			s.Core.TraceFn = th.fn
			if r := s.Run(); r.Hung || r.Interrupted {
				t.Fatalf("%s ff=%v: did not finish: %+v", w.Name, ff, r)
			}
			return s, th
		}
		ff, ffTrace := run(true)
		ref, refTrace := run(false)
		if ff.Core.Arch != ref.Core.Arch {
			t.Errorf("%s: fast-forward diverged architectural state", w.Name)
		}
		if ff.Core.Insts != ref.Core.Insts {
			t.Errorf("%s: committed insts %d vs %d", w.Name, ff.Core.Insts, ref.Core.Insts)
		}
		if ff.Kernel.Console() != ref.Kernel.Console() {
			t.Errorf("%s: console diverged", w.Name)
		}
		if _, total := mem.DiffSnapshots(ff.Mem.Snapshot(), ref.Mem.Snapshot(), 4); total != 0 {
			t.Errorf("%s: %d bytes of memory diverged", w.Name, total)
		}
		if *ffTrace != *refTrace {
			t.Errorf("%s: golden trace diverged under fast-forward", w.Name)
		}
		if ff.WindowOpenInsts == 0 {
			t.Errorf("%s: fast-forward run never recorded the window opening", w.Name)
		}
	}
}

// TestFastForwardCampaignVerdictIdentity runs the same experiments
// through checkpointed campaign runners with and without fast-forward
// (pipelined model, the paper's methodology) and requires identical
// outcome classifications, fired flags and injection PCs per experiment.
func TestFastForwardCampaignVerdictIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign pair per workload is slow")
	}
	for _, w := range workloads.All(workloads.ScaleTest) {
		newRunner := func(ff bool) *campaign.Runner {
			cfg := sim.DefaultConfig()
			cfg.FastForward = ff
			r, err := campaign.NewRunner(w, campaign.RunnerOptions{Cfg: &cfg})
			if err != nil {
				t.Fatalf("%s: runner: %v", w.Name, err)
			}
			return r
		}
		ff := newRunner(true)
		ref := newRunner(false)
		if ff.WindowInsts != ref.WindowInsts {
			t.Fatalf("%s: golden windows differ: %d vs %d", w.Name, ff.WindowInsts, ref.WindowInsts)
		}
		exps := campaign.GenerateUniform(6, campaign.GenConfig{WindowInsts: ref.WindowInsts, Seed: 42})
		for _, e := range exps {
			got := ff.Run(e)
			want := ref.Run(e)
			if got.Outcome != want.Outcome || got.Fired != want.Fired {
				t.Errorf("%s exp %d (%s): fast-forward %v/fired=%v, reference %v/fired=%v",
					w.Name, e.ID, e.Faults[0], got.Outcome, got.Fired, want.Outcome, want.Fired)
			}
			if got.InjPCValid != want.InjPCValid || got.InjPC != want.InjPC {
				t.Errorf("%s exp %d: injection PC diverged: %#x/%v vs %#x/%v",
					w.Name, e.ID, got.InjPC, got.InjPCValid, want.InjPC, want.InjPCValid)
			}
		}
	}
}
