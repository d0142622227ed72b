package conformance

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/taint"
	"repro/internal/workloads"
)

// taintConformanceFault is the injection used for cross-model verdict
// agreement: a commit-queue register fault. Commit-time faults are the
// right probe because the committed-instruction stream is architectural
// and identical on all three models; front-end stage faults on the
// pipelined model can legally strike speculative instructions the other
// models never see.
func taintConformanceFault() []core.Fault {
	return []core.Fault{{
		Loc: core.LocIntReg, Reg: 5, Behavior: core.BehFlip, Bit: 7,
		ThreadID: 0, Base: core.TimeInst, When: 50, Occ: 1,
	}}
}

// taintRun executes one workload with taint tracking and returns the
// propagation report.
func taintRun(t *testing.T, name string, model sim.ModelKind, faults []core.Fault, golden *taint.GoldenState) *taint.PropReport {
	t.Helper()
	w, err := workloads.ByName(name, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sim.Config{
		Model: model, EnableFI: true, Faults: faults,
		EnableTaint: true, MaxInsts: 200_000_000,
	})
	if err := s.Load(prog); err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Hung || r.Interrupted {
		t.Fatalf("%s on %s: run did not finish: %+v", name, model, r)
	}
	return s.TaintReport(r.Failed(), golden)
}

// taintGolden captures the golden final state from one clean atomic run;
// the models are architecturally conformant (see the lockstep suite), so
// a single capture serves all three.
func taintGolden(t *testing.T, name string) *taint.GoldenState {
	t.Helper()
	w, err := workloads.ByName(name, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sim.Config{Model: sim.ModelAtomic, EnableFI: true, MaxInsts: 200_000_000})
	if err := s.Load(prog); err != nil {
		t.Fatal(err)
	}
	if r := s.Run(); r.Failed() {
		t.Fatalf("%s: clean run failed: %+v", name, r)
	}
	return taint.CaptureGolden(&s.Core.Arch, s.Mem)
}

// TestTaintVerdictConformance injects the same commit-time register fault
// into each of the six paper workloads on all three CPU models and
// requires identical taint verdicts, tainted-instruction counts and peak
// taint widths — propagation tracking is architectural, so the models
// must tell the same story.
func TestTaintVerdictConformance(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			golden := taintGolden(t, name)
			models := []sim.ModelKind{sim.ModelAtomic, sim.ModelTiming, sim.ModelPipelined}
			ref := taintRun(t, name, models[0], taintConformanceFault(), golden)
			if ref.Injections == 0 {
				t.Fatalf("%s: conformance fault never injected on %s", name, models[0])
			}
			t.Logf("%s: verdict=%s tainted=%d maxlive=%d", name, ref.Verdict, ref.TaintedInsts, ref.MaxLiveTaint)
			for _, m := range models[1:] {
				rep := taintRun(t, name, m, taintConformanceFault(), golden)
				if rep.Verdict != ref.Verdict {
					t.Errorf("%s: verdict on %s = %s, on %s = %s", name, m, rep.Verdict, models[0], ref.Verdict)
				}
				if rep.TaintedInsts != ref.TaintedInsts {
					t.Errorf("%s: tainted insts on %s = %d, on %s = %d", name, m, rep.TaintedInsts, models[0], ref.TaintedInsts)
				}
				if rep.MaxLiveTaint != ref.MaxLiveTaint {
					t.Errorf("%s: max live taint on %s = %d, on %s = %d", name, m, rep.MaxLiveTaint, models[0], ref.MaxLiveTaint)
				}
			}
		})
	}
}

// TestPipelinedSquashZeroResidual is the tracker-level invariant behind
// speculative injection: a fault marked on an in-flight instruction that
// is then squashed must vanish completely — no injection counted, no
// node created, no live taint, verdict not-injected.
func TestPipelinedSquashZeroResidual(t *testing.T) {
	tr := taint.New()
	tr.MarkPendingInjection(7, 0x1000, "speculative fetch fault")
	if tr.PendingInjections() != 1 {
		t.Fatalf("pending = %d, want 1", tr.PendingInjections())
	}
	tr.OnSquash(7)
	rep := tr.Report(false, nil, nil, nil)
	if rep.Verdict != taint.VerdictNotInjected {
		t.Errorf("verdict = %s, want %s", rep.Verdict, taint.VerdictNotInjected)
	}
	if rep.Injections != 0 || rep.SquashedInjections != 1 {
		t.Errorf("injections = %d squashed = %d, want 0/1", rep.Injections, rep.SquashedInjections)
	}
	if rep.LiveTaint != 0 || rep.PendingInjections != 0 || len(rep.Nodes) != 0 || len(rep.Edges) != 0 {
		t.Errorf("squash left residue: %+v", rep)
	}
}

// TestPipelinedSpeculativeTaintDrains runs every workload on the
// pipelined model with a front-end (fetch-stage) fault that can strike
// wrong-path instructions: at the end of the run no pending speculative
// injection may linger — each one either committed (and became a real
// injection) or was squashed and fully untainted.
func TestPipelinedSpeculativeTaintDrains(t *testing.T) {
	fault := []core.Fault{{
		Loc: core.LocFetch, Behavior: core.BehFlip, Bit: 9,
		ThreadID: 0, Base: core.TimeInst, When: 40, Occ: 1,
	}}
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep := taintRun(t, name, sim.ModelPipelined, fault, nil)
			// A crash freezes the pipeline mid-flight, so a pending mark on
			// the not-yet-committed corrupted instruction is exactly the
			// evidence the reached-crash verdict runs on. On a clean exit
			// every speculative mark must have resolved.
			if !rep.Crashed && rep.PendingInjections != 0 {
				t.Errorf("%s: %d speculative injections never resolved (committed %d, squashed %d)",
					name, rep.PendingInjections, rep.Injections, rep.SquashedInjections)
			}
			if rep.Crashed && rep.Verdict != taint.VerdictReachedCrash && rep.PendingInjections+rep.Injections > 0 {
				t.Errorf("%s: crashed with injections but verdict %s", name, rep.Verdict)
			}
			if rep.Injections == 0 && rep.SquashedInjections == 0 && rep.PendingInjections == 0 && !rep.Crashed {
				t.Errorf("%s: fetch fault left no trace at all (did the fault fire?)", name)
			}
		})
	}
}
