package conformance

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// These tests pin the fork server to full replay. A COW fork shares
// frozen pages with the trunk by reference; its deep twin is the same
// fork point rebuilt from a flat deep copy — replay semantics, no
// sharing. Running both children through identical experiments and
// demanding bit-identical everything (architectural state, trace hashes,
// per-PC profiles, taint verdicts, outcome flags) proves the COW
// machinery is invisible to results: any divergence is page sharing
// leaking state across the fork boundary.

// forkFixture holds one mid-window fork point in both representations.
type forkFixture struct {
	cow  *checkpoint.ForkPoint // shares frozen pages with the trunk
	deep *checkpoint.ForkPoint // flat deep copy of the same instant
	win  uint64                // window commits at the fork point
}

// buildForkFixture advances a fault-free atomic trunk into the workload's
// fault-injection window and captures the same instant as a COW fork
// point and as a deep copy.
func buildForkFixture(t *testing.T, w *workloads.Workload) *forkFixture {
	t.Helper()
	trunk := sim.New(sim.Config{Model: sim.ModelAtomic, EnableFI: true, MaxInsts: 200_000_000})
	p, err := w.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", w.Name, err)
	}
	if err := trunk.Load(p); err != nil {
		t.Fatalf("%s: load: %v", w.Name, err)
	}
	res := sim.RunResult{Paused: true}
	for res.Paused && trunk.Engine.ThreadsActive() == 0 {
		res = trunk.RunUntil(trunk.Core.Insts + 512)
	}
	if !res.Paused {
		t.Fatalf("%s: ended before the fault-injection window opened: %+v", w.Name, res)
	}
	// Step into the window so the fork point is genuinely mid-window.
	if res = trunk.RunUntil(trunk.Core.Insts + 64); !res.Paused {
		t.Fatalf("%s: ended inside the window seek: %+v", w.Name, res)
	}
	cow := trunk.CaptureForkPoint()
	if !cow.Window.Open() {
		t.Fatalf("%s: fork point does not carry an open window", w.Name)
	}
	lo, hi := trunk.Mem.TextRegion()
	deep := &checkpoint.ForkPoint{
		Core:   cow.Core,
		Mem:    mem.CowFromSnapshot(trunk.Mem.Snapshot(), lo, hi),
		Kernel: cow.Kernel,
		Window: cow.Window,
	}
	return &forkFixture{cow: cow, deep: deep, win: cow.WindowCommits()}
}

// fixtureFaults returns the experiment faults exercised against each
// fixture: a register flip, a PC flip (crash-prone) and a fetch flip
// (predecode-cache stress), all timed after the fork point.
func fixtureFaults(win uint64) [][]core.Fault {
	return [][]core.Fault{
		{{Loc: core.LocIntReg, Reg: 3, Behavior: core.BehFlip, Bit: 17,
			Base: core.TimeInst, When: win + 40, Occ: 1}},
		{{Loc: core.LocPC, Behavior: core.BehFlip, Bit: 12,
			Base: core.TimeInst, When: win + 90, Occ: 1}},
		{{Loc: core.LocFetch, Behavior: core.BehFlip, Bit: 5,
			Base: core.TimeInst, When: win + 15, Occ: 1}},
	}
}

// runForkChild forks a fully instrumented simulator (profiler, taint
// tracker, trace hash) from fp and runs the experiment to completion.
func runForkChild(t *testing.T, w *workloads.Workload, model sim.ModelKind,
	fp *checkpoint.ForkPoint, faults []core.Fault) (*sim.Simulator, *traceHash, sim.RunResult) {
	t.Helper()
	th := &traceHash{}
	s := sim.New(sim.Config{Model: model, EnableFI: true, MaxInsts: 20_000_000,
		EnableProfiler: true, EnableTaint: true})
	p, err := w.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", w.Name, err)
	}
	if err := s.Load(p); err != nil {
		t.Fatalf("%s: load: %v", w.Name, err)
	}
	s.Core.TraceFn = th.fn
	s.ForkFrom(fp, faults)
	return s, th, s.Run()
}

// TestForkIdentity is the fork-identity acceptance suite: six workloads ×
// three CPU models × three fault classes, COW fork vs deep-copy replay,
// everything bit-identical.
func TestForkIdentity(t *testing.T) {
	fired := 0
	for _, w := range workloads.All(workloads.ScaleTest) {
		fx := buildForkFixture(t, w)
		for _, model := range []sim.ModelKind{sim.ModelAtomic, sim.ModelTiming, sim.ModelPipelined} {
			for fi, faults := range fixtureFaults(fx.win) {
				label := fmt.Sprintf("%s/%s/fault%d", w.Name, model, fi)
				cowSim, cowTrace, cowRes := runForkChild(t, w, model, fx.cow, faults)
				deepSim, deepTrace, deepRes := runForkChild(t, w, model, fx.deep, faults)

				if cowRes.Failed() != deepRes.Failed() || cowRes.Hung != deepRes.Hung ||
					cowRes.ExitStatus != deepRes.ExitStatus {
					t.Errorf("%s: run disposition diverged: cow %+v, deep %+v", label, cowRes, deepRes)
					continue
				}
				// compareMachines plus a NaN-safe register comparison:
				// faulted FP state may legitimately hold NaNs, which a
				// struct != treats as self-unequal.
				if !cowSim.Core.Arch.BitsEqual(&deepSim.Core.Arch) {
					t.Errorf("%s: architectural state diverged", label)
				}
				if cowSim.Core.Insts != deepSim.Core.Insts || cowSim.Core.Ticks != deepSim.Core.Ticks {
					t.Errorf("%s: counters diverged: insts %d vs %d, ticks %d vs %d", label,
						cowSim.Core.Insts, deepSim.Core.Insts, cowSim.Core.Ticks, deepSim.Core.Ticks)
				}
				if ca, cb := cowSim.Kernel.Console(), deepSim.Kernel.Console(); ca != cb {
					t.Errorf("%s: console diverged: %q vs %q", label, ca, cb)
				}
				if _, total := mem.DiffSnapshots(cowSim.Mem.Snapshot(), deepSim.Mem.Snapshot(), 4); total != 0 {
					t.Errorf("%s: %d bytes of memory diverged", label, total)
				}
				if *cowTrace != *deepTrace {
					t.Errorf("%s: trace hash diverged: %d/%x vs %d/%x",
						label, cowTrace.n, cowTrace.h, deepTrace.n, deepTrace.h)
				}
				if !reflect.DeepEqual(cowRes.Outcomes, deepRes.Outcomes) {
					t.Errorf("%s: fault outcomes diverged:\ncow  %+v\ndeep %+v",
						label, cowRes.Outcomes, deepRes.Outcomes)
				}
				cp, dp := cowSim.Profiler().Snapshot(), deepSim.Profiler().Snapshot()
				if cp.TotalInsts != dp.TotalInsts || cp.TotalCycles != dp.TotalCycles ||
					!reflect.DeepEqual(cp.PCs, dp.PCs) {
					t.Errorf("%s: per-PC profile diverged (%d vs %d rows)", label, len(cp.PCs), len(dp.PCs))
				}
				ct := cowSim.TaintReport(cowRes.Failed(), nil)
				dt := deepSim.TaintReport(deepRes.Failed(), nil)
				if (ct == nil) != (dt == nil) {
					t.Errorf("%s: taint report presence diverged", label)
				} else if ct != nil && !reflect.DeepEqual(ct.Summary(), dt.Summary()) {
					t.Errorf("%s: taint verdicts diverged:\ncow  %+v\ndeep %+v",
						label, ct.Summary(), dt.Summary())
				}
				for _, oc := range cowRes.Outcomes {
					if oc.Fired {
						fired++
					}
				}
			}
		}
	}
	if fired == 0 {
		t.Error("no fault in the whole suite ever fired — fork points landed outside every window?")
	}
}

// quiesceFaults extends fixtureFaults with the other classes whose
// resolution quiescence must get right — a corrupted FP register, a
// store or load value waiting in memory and an execute-stage result —
// all timed after window commit win.
func quiesceFaults(win uint64) [][]core.Fault {
	return append(fixtureFaults(win),
		[]core.Fault{{Loc: core.LocFloatReg, Reg: 2, Behavior: core.BehFlip, Bit: 51,
			Base: core.TimeInst, When: win + 70, Occ: 1}},
		[]core.Fault{{Loc: core.LocMem, Behavior: core.BehFlip, Bit: 5,
			Base: core.TimeInst, When: win + 25, Occ: 1}},
		[]core.Fault{{Loc: core.LocExec, Behavior: core.BehFlip, Bit: 9,
			Base: core.TimeInst, When: win + 60, Occ: 1}},
	)
}

// compareFaultRuns asserts that a run on the default (fast-path,
// translated) configuration matches its DisableFastPath referee: the
// machine state compareMachines checks, plus the run's disposition and
// totals, every FaultOutcome field, and the engine's window counters and
// tick clock.
func compareFaultRuns(t *testing.T, label string, fast, cold *sim.Simulator, rf, rc sim.RunResult) {
	t.Helper()
	compareMachines(t, label, fast, cold)
	if rf.Failed() != rc.Failed() || rf.Hung != rc.Hung || rf.CrashCause != rc.CrashCause {
		t.Errorf("%s: run disposition diverged: fast %+v, cold %+v", label, rf, rc)
	}
	if rf.Insts != rc.Insts || rf.Ticks != rc.Ticks {
		t.Errorf("%s: result totals diverged: insts %d vs %d, ticks %d vs %d",
			label, rf.Insts, rc.Insts, rf.Ticks, rc.Ticks)
	}
	if !reflect.DeepEqual(rf.Outcomes, rc.Outcomes) {
		t.Errorf("%s: fault outcomes diverged:\nfast %+v\ncold %+v", label, rf.Outcomes, rc.Outcomes)
	}
	if fw, cw := fast.Engine.CaptureWindow(), cold.Engine.CaptureWindow(); !reflect.DeepEqual(fw, cw) {
		t.Errorf("%s: window state diverged:\nfast %+v\ncold %+v", label, fw, cw)
	}
}

// TestForkQuiescenceReferee pins the quiescent fast path on the fork
// path to the DisableFastPath referee. A translated trunk and a cold one
// advance through each workload's window in lockstep, as the fork server
// does, and must freeze identical fork points: core snapshot and every
// WindowState counter. Children forked from the translated trunk's
// mid-window point on the default configuration, and from the cold
// trunk's on the cold one, must then agree on every fault class, on the
// atomic model and on the paper's pipelined-then-atomic methodology.
func TestForkQuiescenceReferee(t *testing.T) {
	quiesced := uint64(0)
	for _, w := range workloads.All(workloads.ScaleTest) {
		trunk := func(cold bool) *sim.Simulator {
			return loadSim(t, w, sim.Config{Model: sim.ModelAtomic, EnableFI: true, MaxInsts: 200_000_000,
				EnableBlockTranslation: !cold, DisableFastPath: cold})
		}
		fast, cold := trunk(false), trunk(true)
		var mid [2]*checkpoint.ForkPoint
		for snaps := 0; ; snaps++ {
			step := uint64(512)
			if fast.Engine.WindowOpen() {
				step = 4096
			}
			rf, rc := fast.RunUntil(fast.Core.Insts+step), cold.RunUntil(cold.Core.Insts+step)
			if rf.Paused != rc.Paused {
				t.Fatalf("%s: trunks diverged at snapshot %d: %+v vs %+v", w.Name, snaps, rf, rc)
			}
			if !rf.Paused {
				compareFaultRuns(t, w.Name+"/trunk", fast, cold, rf, rc)
				break
			}
			ff, fc := fast.CaptureForkPoint(), cold.CaptureForkPoint()
			if ff.Core != fc.Core || !reflect.DeepEqual(ff.Window, fc.Window) {
				t.Fatalf("%s: trunk snapshot %d diverged:\nfast %+v %+v\ncold %+v %+v",
					w.Name, snaps, ff.Core, ff.Window, fc.Core, fc.Window)
			}
			if ff.Window.Open() && mid[0] == nil {
				mid = [2]*checkpoint.ForkPoint{ff, fc}
			}
		}
		if mid[0] == nil {
			t.Fatalf("%s: no trunk snapshot inside the window", w.Name)
		}
		for _, model := range []sim.ModelKind{sim.ModelAtomic, sim.ModelPipelined} {
			for fi, faults := range quiesceFaults(mid[0].WindowCommits()) {
				label := fmt.Sprintf("%s/%s/fault%d", w.Name, model, fi)
				child := func(fp *checkpoint.ForkPoint, cold bool) (*sim.Simulator, sim.RunResult) {
					cfg := sim.DefaultConfig()
					cfg.Model, cfg.MaxInsts, cfg.DisableFastPath = model, 20_000_000, cold
					s := loadSim(t, w, cfg)
					s.ForkFrom(fp, faults)
					return s, s.Run()
				}
				fs, rf := child(mid[0], false)
				cs, rc := child(mid[1], true)
				compareFaultRuns(t, label, fs, cs, rf, rc)
				quiesced += fs.Engine.Quiesced
			}
		}
	}
	if quiesced == 0 {
		t.Error("no child ever quiesced: the fast path inside the window was never exercised")
	}
}

// TestForkCampaignQuiescenceReferee runs the same experiments through a
// fork-server campaign on the default configuration and on its
// DisableFastPath referee and requires identical results per experiment:
// outcome class, fired flag, injection PC, crash cause, and the
// instruction and tick totals (pruned and memoized runs included).
func TestForkCampaignQuiescenceReferee(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign pair per workload is slow")
	}
	for _, w := range workloads.All(workloads.ScaleTest) {
		runner := func(cold bool) *campaign.Runner {
			cfg := sim.DefaultConfig()
			cfg.DisableFastPath = cold
			r, err := campaign.NewRunner(w, campaign.RunnerOptions{Cfg: &cfg})
			if err != nil {
				t.Fatalf("%s: runner: %v", w.Name, err)
			}
			if err := r.EnableFork(campaign.DefaultForkOptions()); err != nil {
				t.Fatalf("%s: EnableFork: %v", w.Name, err)
			}
			return r
		}
		fast, cold := runner(false), runner(true)
		exps := campaign.GenerateUniform(8, campaign.GenConfig{WindowInsts: cold.WindowInsts, Seed: 42})
		for _, e := range exps {
			got, want := fast.Run(e), cold.Run(e)
			if got.Outcome != want.Outcome || got.Fired != want.Fired || got.CrashCause != want.CrashCause ||
				got.InjPC != want.InjPC || got.InjPCValid != want.InjPCValid ||
				got.Insts != want.Insts || got.Ticks != want.Ticks {
				t.Errorf("%s exp %d (%s): fast %v fired=%v %d/%d %q, cold %v fired=%v %d/%d %q",
					w.Name, e.ID, e.Faults[0], got.Outcome, got.Fired, got.Insts, got.Ticks, got.CrashCause,
					want.Outcome, want.Fired, want.Insts, want.Ticks, want.CrashCause)
			}
		}
	}
}

// TestForkPointFuzz forks children of randomized generator programs at
// randomized instruction counts and requires every one — and the trunk
// that served them — to finish bit-identical to straight-line execution.
func TestForkPointFuzz(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := ForkFuzz(seed, 4, GenConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Points == 0 {
				t.Errorf("seed %d: no fork point exercised (%d insts)", seed, res.Insts)
			}
		})
	}
}

// TestForkCampaignVerdictIdentity runs the same experiments through a
// fork-server campaign runner and a plain replay runner for every
// workload and requires identical outcome classes — the campaign-level
// half of the acceptance criteria.
func TestForkCampaignVerdictIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign pair per workload is slow")
	}
	for _, w := range workloads.All(workloads.ScaleTest) {
		replay, err := campaign.NewRunner(w, campaign.RunnerOptions{})
		if err != nil {
			t.Fatalf("%s: runner: %v", w.Name, err)
		}
		fork, err := campaign.NewRunner(w, campaign.RunnerOptions{})
		if err != nil {
			t.Fatalf("%s: runner: %v", w.Name, err)
		}
		if err := fork.EnableFork(campaign.DefaultForkOptions()); err != nil {
			t.Fatalf("%s: EnableFork: %v", w.Name, err)
		}
		exps := campaign.GenerateUniform(8, campaign.GenConfig{WindowInsts: replay.WindowInsts, Seed: 42})
		for _, e := range exps {
			got := fork.Run(e)
			want := replay.Run(e)
			if got.Outcome != want.Outcome || got.Fired != want.Fired {
				t.Errorf("%s exp %d (%s): fork %v/fired=%v, replay %v/fired=%v",
					w.Name, e.ID, e.Faults[0], got.Outcome, got.Fired, want.Outcome, want.Fired)
			}
		}
	}
}
