package conformance

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// These tests pin the basic-block translator (internal/bbt) to the
// fully-hooked interpreter the same way the fast-path suite pins the
// caches: one run with translation on, one reference run, compared bit
// for bit — architectural state, counters, console, memory, golden
// traces, per-PC profiles and per-experiment fault verdicts.

// TestBBTArchIdentity runs the paper's six workloads on the atomic model
// with block translation against the DisableFastPath interpreter and
// demands indistinguishable end states. Each translated run must have
// actually executed translated instructions, or the test is vacuous.
func TestBBTArchIdentity(t *testing.T) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		label := fmt.Sprintf("%s/atomic-bbt", w.Name)
		bbt := runWorkload(t, w, sim.Config{Model: sim.ModelAtomic, EnableFI: true,
			MaxInsts: 200_000_000, EnableBlockTranslation: true})
		ref := runWorkload(t, w, sim.Config{Model: sim.ModelAtomic, EnableFI: true,
			MaxInsts: 200_000_000, DisableFastPath: true})
		compareMachines(t, label, bbt, ref)
		if bbt.BBT == nil || bbt.BBT.Stats.Insts == 0 {
			t.Errorf("%s: no instructions were executed from translated blocks", label)
		}
	}
}

// TestBBTFastForwardIdentity puts translation under the campaign
// fast-forward prefix: a pipelined run whose atomic prefix translates
// must be architecturally identical to one whose prefix interprets, and
// must open the FI window at the same committed-instruction count (the
// anchor every instruction-timed fault hangs off).
func TestBBTFastForwardIdentity(t *testing.T) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		run := func(bbt bool) *sim.Simulator {
			return runWorkload(t, w, sim.Config{Model: sim.ModelPipelined, EnableFI: true,
				MaxInsts: 200_000_000, FastForward: true, EnableBlockTranslation: bbt})
		}
		tr := run(true)
		ref := run(false)
		label := fmt.Sprintf("%s/fastforward-bbt", w.Name)
		if tr.Core.Arch != ref.Core.Arch {
			t.Errorf("%s: architectural state diverged", label)
		}
		if tr.Core.Insts != ref.Core.Insts {
			t.Errorf("%s: committed insts %d vs %d", label, tr.Core.Insts, ref.Core.Insts)
		}
		if tr.Kernel.Console() != ref.Kernel.Console() {
			t.Errorf("%s: console diverged", label)
		}
		if _, total := mem.DiffSnapshots(tr.Mem.Snapshot(), ref.Mem.Snapshot(), 4); total != 0 {
			t.Errorf("%s: %d bytes of memory diverged", label, total)
		}
		if tr.WindowOpenInsts != ref.WindowOpenInsts {
			t.Errorf("%s: window opened at inst %d vs %d — fault anchors would shift",
				label, tr.WindowOpenInsts, ref.WindowOpenInsts)
		}
		if tr.BBT == nil || tr.BBT.Stats.Insts == 0 {
			t.Errorf("%s: fast-forward prefix never executed a translated block", label)
		}
	}
}

// TestBBTObserverForcesInterpreter attaches the tracer and profiler to a
// translation-enabled run: per-instruction observers must force the
// interpreter (zero translated instructions, counted fallbacks), and the
// golden trace and per-PC profile must match the DisableFastPath
// reference exactly — translation being enabled must be unobservable.
func TestBBTObserverForcesInterpreter(t *testing.T) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		label := fmt.Sprintf("%s/atomic-bbt-observed", w.Name)
		run := func(bbt, disable bool) (*sim.Simulator, *traceHash) {
			th := &traceHash{}
			s := sim.New(sim.Config{Model: sim.ModelAtomic, EnableFI: true,
				MaxInsts: 200_000_000, EnableProfiler: true,
				EnableBlockTranslation: bbt, DisableFastPath: disable})
			p, err := w.Build()
			if err != nil {
				t.Fatalf("%s: build: %v", label, err)
			}
			if err := s.Load(p); err != nil {
				t.Fatalf("%s: load: %v", label, err)
			}
			s.Core.Observers = append(s.Core.Observers, cpu.TraceFunc(th.fn))
			if r := s.Run(); r.Hung || r.Interrupted {
				t.Fatalf("%s: did not finish: %+v", label, r)
			}
			return s, th
		}
		tr, trTrace := run(true, false)
		ref, refTrace := run(false, true)
		compareMachines(t, label, tr, ref)
		if *trTrace != *refTrace {
			t.Errorf("%s: golden trace diverged: %d/%x vs %d/%x",
				label, trTrace.n, trTrace.h, refTrace.n, refTrace.h)
		}
		tp, rp := tr.Profiler().Snapshot(), ref.Profiler().Snapshot()
		if tp.TotalInsts != rp.TotalInsts || tp.TotalCycles != rp.TotalCycles {
			t.Errorf("%s: profile totals diverged: %d/%d vs %d/%d",
				label, tp.TotalInsts, tp.TotalCycles, rp.TotalInsts, rp.TotalCycles)
		}
		if !reflect.DeepEqual(tp.PCs, rp.PCs) {
			t.Errorf("%s: per-PC profile diverged (%d vs %d rows)", label, len(tp.PCs), len(rp.PCs))
		}
		if tr.BBT.Stats.Insts != 0 {
			t.Errorf("%s: %d instructions ran translated despite attached observers",
				label, tr.BBT.Stats.Insts)
		}
		if tr.BBT.Stats.Fallbacks == 0 {
			t.Errorf("%s: observer-forced interpretation was not counted as fallbacks", label)
		}
	}
}

// TestBBTQuiescenceReferee runs every fault class from program start on
// the translated atomic model and on the DisableFastPath interpreter and
// requires identical runs, fault outcomes (every FaultOutcome field,
// FiredTick, Propagated and Overwritten included) and window counters —
// the translated blocks and fast steps a quiescent engine admits inside
// the window must be unobservable.
func TestBBTQuiescenceReferee(t *testing.T) {
	var quiesced, translated uint64
	for _, w := range workloads.All(workloads.ScaleTest) {
		golden := runWorkload(t, w, sim.Config{Model: sim.ModelAtomic, EnableFI: true,
			EnableBlockTranslation: true})
		third := golden.Engine.WindowCommits() / 3
		for fi, faults := range quiesceFaults(third) {
			label := fmt.Sprintf("%s/atomic-bbt/fault%d", w.Name, fi)
			run := func(cold bool) (*sim.Simulator, sim.RunResult) {
				s := loadSim(t, w, sim.Config{Model: sim.ModelAtomic, EnableFI: true, Faults: faults,
					MaxInsts: 20_000_000, EnableBlockTranslation: !cold, DisableFastPath: cold})
				return s, s.Run()
			}
			fs, rf := run(false)
			cs, rc := run(true)
			compareFaultRuns(t, label, fs, cs, rf, rc)
			if fs.Engine.Quiesced > 0 {
				quiesced++
				translated += fs.BBT.Stats.Insts
			}
		}
	}
	if quiesced == 0 || translated == 0 {
		t.Errorf("%d runs quiesced, %d instructions translated: the in-window fast path was never exercised",
			quiesced, translated)
	}
}

// TestBBTCampaignVerdictIdentity runs the same experiments through
// checkpointed fast-forward campaign runners with and without block
// translation and requires identical outcome classifications, fired
// flags and injection PCs — the fault anchors the translator's batched
// accounting must not move.
func TestBBTCampaignVerdictIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign pair per workload is slow")
	}
	for _, w := range workloads.All(workloads.ScaleTest) {
		newRunner := func(bbt bool) *campaign.Runner {
			cfg := sim.DefaultConfig()
			cfg.FastForward = true
			cfg.EnableBlockTranslation = bbt
			r, err := campaign.NewRunner(w, campaign.RunnerOptions{Cfg: &cfg})
			if err != nil {
				t.Fatalf("%s: runner: %v", w.Name, err)
			}
			return r
		}
		tr := newRunner(true)
		ref := newRunner(false)
		if tr.WindowInsts != ref.WindowInsts {
			t.Fatalf("%s: golden windows differ: %d vs %d", w.Name, tr.WindowInsts, ref.WindowInsts)
		}
		exps := campaign.GenerateUniform(6, campaign.GenConfig{WindowInsts: ref.WindowInsts, Seed: 42})
		for _, e := range exps {
			got := tr.Run(e)
			want := ref.Run(e)
			if got.Outcome != want.Outcome || got.Fired != want.Fired {
				t.Errorf("%s exp %d (%s): bbt %v/fired=%v, reference %v/fired=%v",
					w.Name, e.ID, e.Faults[0], got.Outcome, got.Fired, want.Outcome, want.Fired)
			}
			if got.InjPCValid != want.InjPCValid || got.InjPC != want.InjPC {
				t.Errorf("%s exp %d: injection PC diverged: %#x/%v vs %#x/%v",
					w.Name, e.ID, got.InjPC, got.InjPCValid, want.InjPC, want.InjPCValid)
			}
		}
	}
}
