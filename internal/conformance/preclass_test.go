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

// forkPoolAgainstReplay runs exps through a two-runner atomic fork pool
// and each one alone through a replay runner, fails on any result field
// that differs, and returns the pool's fork accounting.
func forkPoolAgainstReplay(t *testing.T, w *workloads.Workload, exps []campaign.Experiment, label string) campaign.ForkStats {
	t.Helper()
	replay, err := campaign.NewRunner(w, campaign.RunnerOptions{})
	if err != nil {
		t.Fatalf("%s: runner: %v", label, err)
	}
	pool, err := campaign.NewPool(w, 2, campaign.RunnerOptions{})
	if err != nil {
		t.Fatalf("%s: pool: %v", label, err)
	}
	if err := pool.EnableFork(campaign.DefaultForkOptions()); err != nil {
		t.Fatalf("%s: EnableFork: %v", label, err)
	}
	got := pool.RunAll(exps)
	for _, e := range exps {
		if diff := sameResult(got[e.ID], replay.Run(e)); diff != "" {
			t.Errorf("%s exp %d (%s): fork vs replay: %s", label, e.ID, e.Faults[0], diff)
		}
	}
	return pool.ForkStats()
}

// TestPreclassifiedMatchesReplay referees the walks' def-use verdicts: on
// register-only corpora, where most faults strike a register the golden
// run overwrites or never reads again, every result of an atomic fork
// pool must equal the replay runner's, and every workload must decide
// some experiments without running them. -short keeps pi and dct, one
// seed. A hand-built guest checks that reads by the kernel count.
func TestPreclassifiedMatchesReplay(t *testing.T) {
	t.Run("kernel-reads", testKernelReads)
	ws := workloads.All(workloads.ScaleTest)
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		ws = []*workloads.Workload{workloads.MonteCarloPI(workloads.ScaleTest), workloads.DCT(workloads.ScaleTest)}
		seeds = seeds[:1]
	}
	regs := []core.Location{core.LocIntReg, core.LocFloatReg}
	for _, w := range ws {
		window, err := campaign.NewRunner(w, campaign.RunnerOptions{})
		if err != nil {
			t.Fatalf("%s: runner: %v", w.Name, err)
		}
		decided := uint64(0)
		for _, seed := range seeds {
			exps := campaign.GenerateUniform(80, campaign.GenConfig{
				Locations: regs, WindowInsts: window.WindowInsts, Seed: seed,
			})
			st := forkPoolAgainstReplay(t, w, exps, fmt.Sprintf("%s/seed=%d", w.Name, seed))
			decided += st.Preclassified
		}
		if decided == 0 {
			t.Errorf("%s: no register fault was decided from the def-use index", w.Name)
		}
		t.Logf("%s: %d of %d register faults decided from the def-use index", w.Name, decided, 80*len(seeds))
	}
}

// kernelReadsSource is a guest whose window holds two putc calls and a
// yield to a second thread: the kernel reads the first putc's a0 before
// the second one overwrites it, and saves every register of the thread
// it switches out, without any committed instruction reading them.
const kernelReadsSource = `
int out[1];
void worker(int n) {
    for (int i = 0; i < n; i = i + 1) { yield(); }
}
int main() {
    fi_checkpoint();
    int t = spawn(worker, 2);
    fi_activate(0);
    putc(72);
    putc(10);
    yield();
    out[0] = 7;
    fi_activate(0);
    join(t);
    return 0;
}
`

// testKernelReads flips a0 on the commit before a putc and f20 on the
// commit before a yield that switches threads. Only the kernel reads
// either register next, and the def-use index must count those reads:
// neither experiment may be decided without running, and both must
// still match replay.
func testKernelReads(t *testing.T) {
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
		flip(0, core.LocIntReg, int(isa.RegA0), putc),
		flip(1, core.LocFloatReg, 20, yield),
	}
	if st := forkPoolAgainstReplay(t, w, exps, w.Name); st.Preclassified != 0 {
		t.Errorf("%d experiments decided without running, want 0: kernel reads were missed", st.Preclassified)
	}
}
