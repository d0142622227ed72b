package conformance

import (
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// sameResult reports the first field on which a fork result differs from
// its replay: outcome, fired flag, instruction and tick totals, injection
// PC and crash cause. "" means identical.
func sameResult(got, want campaign.Result) string {
	switch {
	case got.Outcome != want.Outcome:
		return fmt.Sprintf("outcome %v vs %v", got.Outcome, want.Outcome)
	case got.Fired != want.Fired:
		return fmt.Sprintf("fired %v vs %v", got.Fired, want.Fired)
	case got.Insts != want.Insts:
		return fmt.Sprintf("insts %d vs %d", got.Insts, want.Insts)
	case got.Ticks != want.Ticks:
		return fmt.Sprintf("ticks %d vs %d", got.Ticks, want.Ticks)
	case got.InjPC != want.InjPC || got.InjPCValid != want.InjPCValid:
		return fmt.Sprintf("injPC %#x/%v vs %#x/%v", got.InjPC, got.InjPCValid, want.InjPC, want.InjPCValid)
	case got.CrashCause != want.CrashCause:
		return fmt.Sprintf("crash cause %q vs %q", got.CrashCause, want.CrashCause)
	}
	return ""
}

// forkPoolAgainstReplay runs exps through a two-runner fork pool on
// model and through a two-runner replay pool on the same model,
// fails on any result field that differs, and returns the pool's fork
// accounting. Off the atomic model ticks are not compared: a fork's are
// not a replay's there, whether it runs or is decided (ROADMAP item 1).
func forkPoolAgainstReplay(t *testing.T, w *workloads.Workload, model sim.ModelKind,
	exps []campaign.Experiment, label string) campaign.ForkStats {
	t.Helper()
	cfg := campaign.SimConfig(model, 0)
	replay, err := campaign.NewPool(w, 2, campaign.RunnerOptions{Cfg: &cfg})
	if err != nil {
		t.Fatalf("%s: replay pool: %v", label, err)
	}
	pool, err := campaign.NewPool(w, 2, campaign.RunnerOptions{Cfg: &cfg})
	if err != nil {
		t.Fatalf("%s: pool: %v", label, err)
	}
	if err := pool.EnableFork(campaign.DefaultForkOptions()); err != nil {
		t.Fatalf("%s: EnableFork: %v", label, err)
	}
	got, wants := pool.RunAll(exps), replay.RunAll(exps)
	for _, e := range exps {
		want := wants[e.ID]
		if model != sim.ModelAtomic {
			want.Ticks = got[e.ID].Ticks
		}
		if diff := sameResult(got[e.ID], want); diff != "" {
			t.Errorf("%s exp %d (%s): fork vs replay: %s", label, e.ID, e.Faults[0], diff)
		}
	}
	return pool.ForkStats()
}

// preclassModels are the models the def-use verdicts are refereed on.
var preclassModels = []sim.ModelKind{sim.ModelAtomic, sim.ModelTiming, sim.ModelPipelined}

// TestPreclassifiedMatchesReplay referees the walks' dead-register
// verdicts on every model: on register-only corpora, where most faults
// strike a register the golden run never reads again, every result of a
// fork pool must equal the replay runner's, ticks excepted off the
// atomic model, and every workload must decide some experiments without
// running them. -short keeps pi and dct, one seed, atomic and
// pipelined. A hand-built guest checks on every model that reads by the
// kernel count.
func TestPreclassifiedMatchesReplay(t *testing.T) {
	ws := workloads.All(workloads.ScaleTest)
	models, seeds := preclassModels, []int64{1, 2, 3}
	if testing.Short() {
		ws = []*workloads.Workload{workloads.MonteCarloPI(workloads.ScaleTest), workloads.DCT(workloads.ScaleTest)}
		models, seeds = []sim.ModelKind{sim.ModelAtomic, sim.ModelPipelined}, seeds[:1]
	}
	t.Run("kernel-reads", func(t *testing.T) {
		for _, model := range preclassModels {
			testKernelReads(t, model)
		}
	})
	regs := []core.Location{core.LocIntReg, core.LocFloatReg}
	for _, w := range ws {
		window, err := campaign.NewRunner(w, campaign.RunnerOptions{})
		if err != nil {
			t.Fatalf("%s: runner: %v", w.Name, err)
		}
		for _, model := range models {
			decided := uint64(0)
			for _, seed := range seeds {
				exps := campaign.GenerateUniform(80, campaign.GenConfig{
					Locations: regs, WindowInsts: window.WindowInsts, Seed: seed,
				})
				st := forkPoolAgainstReplay(t, w, model, exps, fmt.Sprintf("%s/%s/seed=%d", w.Name, model, seed))
				decided += st.Preclassified
			}
			if decided == 0 {
				t.Errorf("%s/%s: no register fault was decided from the last-read table", w.Name, model)
			}
			t.Logf("%s/%s: %d of %d register faults decided from the last-read table",
				w.Name, model, decided, 80*len(seeds))
		}
	}
}

// kernelReadsSource is a guest whose window holds a yield to a second
// thread and then, once that thread has ended, two putc calls. The
// kernel saves every register of the thread it switches out and reads
// every syscall's a1, and no committed instruction reads f20 or a1.
const kernelReadsSource = `
int out[1];
void worker(int n) {
    for (int i = 0; i < n; i = i + 1) { yield(); }
}
int main() {
    fi_checkpoint();
    int t = spawn(worker, 1);
    fi_activate(0);
    yield();
    join(t);
    putc(72);
    putc(10);
    out[0] = 7;
    fi_activate(0);
    return 0;
}
`

// testKernelReads flips f20 on the commit before a yield that switches
// threads, and a1 on the commit before a putc. Only the kernel reads
// either register afterwards, and the last-read table must count those
// reads: neither experiment may be decided without running, and both
// must still match replay on model.
func testKernelReads(t *testing.T, model sim.ModelKind) {
	w := &workloads.Workload{
		Name:    "kernel-reads",
		Source:  kernelReadsSource,
		Outputs: []workloads.OutputSpec{{Symbol: "out", Count: 1}},
		Classify: func(golden, run *workloads.Result) workloads.Grade {
			if golden.Data["out"][0] == run.Data["out"][0] {
				return workloads.GradeStrict
			}
			return workloads.GradeSDC
		},
	}
	// Find the window commits just before the two syscalls: the engine's
	// window counter, read before each commit is counted.
	p, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sim.Config{Model: sim.ModelAtomic, EnableFI: true, MaxInsts: 1_000_000})
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	before := map[uint64]uint64{}
	s.Watch(cpu.TraceFunc(func(pc uint64, in isa.Inst) {
		if in.Kind != isa.KindSyscall || s.Engine.ThreadsActive() == 0 || s.Engine.WindowCommits() == 0 {
			return
		}
		if num := s.Core.Arch.ReadReg(isa.RegV0); before[num] == 0 {
			before[num] = s.Engine.WindowCommits()
		}
	}))
	if r := s.Run(); !r.Exited || r.ExitStatus != 0 {
		t.Fatalf("guest did not exit cleanly: %+v", r)
	}
	putc, yield := before[isa.SysPutc], before[isa.SysYield]
	if putc == 0 || yield == 0 {
		t.Fatalf("window commits before putc %d, before yield %d: syscall not found in the window", putc, yield)
	}
	flip := func(id int, loc core.Location, reg int, when uint64) campaign.Experiment {
		return campaign.Experiment{ID: id, Faults: []core.Fault{{
			Loc: loc, Reg: reg, Behavior: core.BehFlip, Bit: 3, Base: core.TimeInst, When: when, Occ: 1,
		}}}
	}
	exps := []campaign.Experiment{
		flip(0, core.LocIntReg, int(isa.RegA1), putc),
		flip(1, core.LocFloatReg, 20, yield),
	}
	if st := forkPoolAgainstReplay(t, w, model, exps, w.Name+"/"+string(model)); st.Preclassified != 0 {
		t.Errorf("%d experiments decided without running, want 0: kernel reads were missed", st.Preclassified)
	}
}
