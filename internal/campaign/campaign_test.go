package campaign

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// piRunner is shared across tests (golden run + checkpoint are costly).
func piRunner(t *testing.T) *Runner {
	t.Helper()
	return observedPiRunner(t, func(*sim.Config) {})
}

// observedPiRunner is piRunner with the observers that observe switches
// on in the campaign default configuration.
func observedPiRunner(t *testing.T, observe func(*sim.Config)) *Runner {
	t.Helper()
	cfg := SimConfig(sim.ModelAtomic, 0)
	observe(&cfg)
	r, err := NewRunner(workloads.MonteCarloPI(workloads.ScaleTest), RunnerOptions{Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunnerGoldenAndWindow(t *testing.T) {
	r := piRunner(t)
	if r.WindowInsts == 0 {
		t.Fatal("fault-injection window is empty")
	}
	if r.Ckpt == nil {
		t.Fatal("no checkpoint captured")
	}
	if len(r.Golden.Data["pi_out"]) != 1 {
		t.Fatal("golden outputs missing")
	}
}

func TestNoFaultExperimentIsNonPropagated(t *testing.T) {
	r := piRunner(t)
	res := r.Run(Experiment{ID: 0})
	if res.Outcome != OutcomeNonPropagated {
		t.Errorf("no-fault run = %v, want non-propagated", res.Outcome)
	}
}

func TestDeadlineFaultNeverFires(t *testing.T) {
	r := piRunner(t)
	f := core.Fault{
		Loc: core.LocIntReg, Reg: 5, Behavior: core.BehFlip, Bit: 1,
		Base: core.TimeInst, When: r.WindowInsts * 100, Occ: 1,
	}
	res := r.Run(Experiment{ID: 0, Faults: []core.Fault{f}})
	if res.Fired {
		t.Error("fault beyond program end must not fire")
	}
	if res.Outcome != OutcomeNonPropagated {
		t.Errorf("outcome = %v", res.Outcome)
	}
}

func TestPCFaultCrashes(t *testing.T) {
	r := piRunner(t)
	f := core.Fault{
		Loc: core.LocPC, Behavior: core.BehFlip, Bit: 30,
		Base: core.TimeInst, When: r.WindowInsts / 2, Occ: 1,
	}
	res := r.Run(Experiment{ID: 0, Faults: []core.Fault{f}})
	if res.Outcome != OutcomeCrashed {
		t.Errorf("PC bit-30 flip = %v, want crashed", res.Outcome)
	}
}

func TestRunnerRepeatabilityAfterRestore(t *testing.T) {
	// The same experiment run twice through the same runner must yield
	// the same outcome (checkpoint restore isolates experiments).
	r := piRunner(t)
	f := core.Fault{
		Loc: core.LocIntReg, Reg: 3, Behavior: core.BehFlip, Bit: 17,
		Base: core.TimeInst, When: r.WindowInsts / 3, Occ: 1,
	}
	a := r.Run(Experiment{ID: 0, Faults: []core.Fault{f}})
	b := r.Run(Experiment{ID: 0, Faults: []core.Fault{f}})
	if a.Outcome != b.Outcome {
		t.Errorf("outcomes differ across restores: %v vs %v", a.Outcome, b.Outcome)
	}
	clean := r.Run(Experiment{ID: 1})
	if clean.Outcome != OutcomeNonPropagated {
		t.Errorf("runner state leaked into clean run: %v", clean.Outcome)
	}
}

func TestGenerateUniformProperties(t *testing.T) {
	exps := GenerateUniform(500, GenConfig{WindowInsts: 1000, Seed: 7})
	if len(exps) != 500 {
		t.Fatal("count")
	}
	seenLoc := map[core.Location]bool{}
	for i, e := range exps {
		if e.ID != i || len(e.Faults) != 1 {
			t.Fatalf("experiment %d malformed", i)
		}
		f := e.Faults[0]
		seenLoc[f.Loc] = true
		if f.When == 0 || f.When > 1000 {
			t.Fatalf("time %d out of range", f.When)
		}
		if f.Bit < 0 || f.Bit >= 64 {
			t.Fatalf("bit %d out of range", f.Bit)
		}
		if f.Loc == core.LocFetch && f.Bit >= 32 {
			t.Fatalf("fetch bit %d out of range", f.Bit)
		}
		if f.Loc == core.LocDecode && (f.Reg < 0 || f.Reg > 2) {
			t.Fatalf("decode operand %d", f.Reg)
		}
		if (f.Loc == core.LocIntReg || f.Loc == core.LocFloatReg) && f.Reg == 31 {
			t.Fatal("generator must not target the zero register")
		}
	}
	for _, loc := range AllLocations() {
		if !seenLoc[loc] {
			t.Errorf("location %v never sampled", loc)
		}
	}
	// Reproducible.
	again := GenerateUniform(500, GenConfig{WindowInsts: 1000, Seed: 7})
	for i := range exps {
		if exps[i].Faults[0] != again[i].Faults[0] {
			t.Fatal("generation not reproducible")
		}
	}
}

func TestSmallCampaignDistribution(t *testing.T) {
	// A small uniform campaign on PI: outcomes must span more than one
	// class, and every experiment must be classified.
	r := piRunner(t)
	exps := GenerateUniform(40, GenConfig{WindowInsts: r.WindowInsts, Seed: 11})
	var results []Result
	for _, e := range exps {
		results = append(results, r.Run(e))
	}
	tally := TallyOf(results)
	if tally.Total() != 40 {
		t.Fatalf("total = %d", tally.Total())
	}
	classes := 0
	for _, o := range Outcomes() {
		if tally[o] > 0 {
			classes++
		}
	}
	if classes < 2 {
		t.Errorf("expected outcome diversity, got %v", tally)
	}
	t.Logf("PI campaign tally: %v", tallyToMap(tally))
}

func TestPoolMatchesSerialRunner(t *testing.T) {
	w := workloads.MonteCarloPI(workloads.ScaleTest)
	pool, err := NewPool(w, 4, RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exps := GenerateUniform(24, GenConfig{WindowInsts: pool.Runner().WindowInsts, Seed: 3})
	par := pool.RunAll(exps)

	serial := piRunner(t)
	for i, e := range exps {
		sres := serial.Run(e)
		if sres.Outcome != par[i].Outcome {
			t.Errorf("experiment %d: serial %v vs pool %v", i, sres.Outcome, par[i].Outcome)
		}
	}
}

func TestAcceptableUnion(t *testing.T) {
	if !OutcomeCorrect.Acceptable() || !OutcomeStrictlyCorrect.Acceptable() || !OutcomeNonPropagated.Acceptable() {
		t.Error("acceptable union wrong")
	}
	if OutcomeCrashed.Acceptable() || OutcomeSDC.Acceptable() {
		t.Error("crash/SDC must not be acceptable")
	}
}

func TestPaperSampleSize(t *testing.T) {
	n := PaperSampleSize(2950)
	if n < 2400 || n > 2600 {
		t.Errorf("sample size %d", n)
	}
}

func TestPipelinedCampaignMethodology(t *testing.T) {
	// The paper's methodology: pipelined until commit/squash of the
	// fault, then atomic. One experiment end-to-end.
	cfg := sim.DefaultConfig()
	cfg.MaxInsts = 500_000_000
	r, err := NewRunner(workloads.MonteCarloPI(workloads.ScaleTest), RunnerOptions{Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	f := core.Fault{
		Loc: core.LocIntReg, Reg: 2, Behavior: core.BehFlip, Bit: 5,
		Base: core.TimeInst, When: r.WindowInsts / 4, Occ: 1,
	}
	res := r.Run(Experiment{ID: 0, Faults: []core.Fault{f}})
	if !res.Fired {
		t.Error("fault did not fire under the pipelined methodology")
	}
	t.Logf("pipelined campaign experiment: %v", res.Outcome)
}

func TestFig5ReportStructure(t *testing.T) {
	rep, err := RunFig5(Fig5Config{
		Workloads:   []*workloads.Workload{workloads.MonteCarloPI(workloads.ScaleTest)},
		PerLocation: 6,
		Parallelism: 2,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 7 locations + 1 summary row.
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if _, ok := rep.Row("pi", "total"); !ok {
		t.Error("missing summary row")
	}
	if rep.String() == "" {
		t.Error("empty rendering")
	}
	total, _ := rep.Row("pi", "total")
	if total.Total != 7*6 {
		t.Errorf("summary total = %d", total.Total)
	}
}

func TestFig6ReportStructure(t *testing.T) {
	rep, err := RunFig6(Fig6Config{
		Workload:    workloads.MonteCarloPI(workloads.ScaleTest),
		Experiments: 30,
		Bins:        3,
		Parallelism: 2,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bins) != 3 {
		t.Fatalf("bins = %d", len(rep.Bins))
	}
	n := 0
	for _, b := range rep.Bins {
		n += b.Total
	}
	if n != 30 {
		t.Errorf("binned %d of 30 experiments", n)
	}
	if rep.String() == "" {
		t.Error("empty rendering")
	}
}

// TestBaselineRunnerKeepsObservers: a DisableCheckpoint runner forks
// every experiment from the booted program on its one simulator, which
// keeps the runner's own observers, so the profile keeps accumulating
// across experiments and every result still carries its taint summary.
func TestBaselineRunnerKeepsObservers(t *testing.T) {
	cfg := SimConfig(sim.ModelAtomic, 0)
	cfg.EnableProfiler, cfg.EnableTaint = true, true
	r, err := NewRunner(workloads.MonteCarloPI(workloads.ScaleTest),
		RunnerOptions{Cfg: &cfg, DisableCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	pr := r.Profiler()
	if pr == nil || r.TaintGolden() == nil {
		t.Fatal("EnableProfiler/EnableTaint gave the runner no profiler or no golden state")
	}
	var seen uint64
	for _, e := range GenerateUniform(2, GenConfig{WindowInsts: r.WindowInsts, Seed: 5}) {
		res := r.Run(e)
		if res.Prop == nil {
			t.Errorf("exp %d: no propagation summary", e.ID)
		}
		if r.sim.Profiler() != pr || r.sim.Taint() != r.Taint() {
			t.Fatalf("exp %d: the rebuilt simulator does not carry the runner's observers", e.ID)
		}
		total := pr.Snapshot().TotalInsts
		if total <= seen {
			t.Errorf("exp %d: profile at %d instructions, %d before it", e.ID, total, seen)
		}
		seen = total
	}
}

// TestBaselineRunnerMatchesRebuild is the referee of the DisableCheckpoint
// runner: every experiment's result equals that of a fresh simulator
// built, loaded and run from boot with the experiment's faults, on every
// Result field but WallNs. On the atomic model, where a checkpoint adds no
// ticks of its own, the checkpoint-backed runner must match it too. The
// detailed models run boot and init on every reference run, so they take
// fewer experiments. The referee is single-goroutine and a golden pass
// takes seconds under the race detector, so race and short runs keep pi
// only.
func TestBaselineRunnerMatchesRebuild(t *testing.T) {
	wls := workloads.All(workloads.ScaleTest)
	if raceEnabled || testing.Short() {
		wls = []*workloads.Workload{workloads.MonteCarloPI(workloads.ScaleTest)}
	}
	for _, w := range wls {
		for _, model := range []sim.ModelKind{sim.ModelAtomic, sim.ModelTiming, sim.ModelPipelined} {
			n := 12
			if model != sim.ModelAtomic {
				n = 2
			}
			t.Run(fmt.Sprintf("%s/%s", w.Name, model), func(t *testing.T) {
				cfg := SimConfig(model, 0)
				base, err := NewRunner(w, RunnerOptions{Cfg: &cfg, DisableCheckpoint: true})
				if err != nil {
					t.Fatal(err)
				}
				var ckpt *Runner
				if model == sim.ModelAtomic {
					if ckpt, err = NewRunner(w, RunnerOptions{Cfg: &cfg}); err != nil {
						t.Fatal(err)
					}
				}
				prog, err := w.Build()
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range GenerateUniform(n, GenConfig{WindowInsts: base.WindowInsts, Seed: 3}) {
					s := sim.New(base.Cfg)
					if err := s.Load(prog); err != nil {
						t.Fatal(err)
					}
					s.Engine.Reset(e.Faults)
					ref := &Runner{Workload: w, Cfg: base.Cfg, Golden: base.Golden, WindowInsts: base.WindowInsts, sim: s}
					want := ref.classify(e, s.Run(), 0)
					got := base.Run(e)
					got.WallNs = 0
					if !reflect.DeepEqual(got, want) {
						t.Errorf("exp %d (%s): baseline %+v, rebuild %+v", e.ID, e.Faults[0], got, want)
					}
					if ckpt != nil {
						got := ckpt.Run(e)
						got.WallNs = 0
						if !reflect.DeepEqual(got, want) {
							t.Errorf("exp %d (%s): checkpoint %+v, rebuild %+v", e.ID, e.Faults[0], got, want)
						}
					}
				}
			})
		}
	}
}

// TestRestoredRunnerMatchesBoot is the referee of a runner built from a
// checkpoint taken elsewhere, as NoW and file-share workers build theirs:
// restored from the boot runner's Ckpt, it must measure the same window
// and watchdog, extract the same golden outputs, and give every
// experiment the same result on every field but WallNs. A golden pass
// takes seconds under the race detector, so race and short runs keep pi
// on the atomic model only.
func TestRestoredRunnerMatchesBoot(t *testing.T) {
	wls := workloads.All(workloads.ScaleTest)
	models := []sim.ModelKind{sim.ModelAtomic, sim.ModelTiming, sim.ModelPipelined}
	if raceEnabled || testing.Short() {
		wls, models = []*workloads.Workload{workloads.MonteCarloPI(workloads.ScaleTest)}, models[:1]
	}
	for _, w := range wls {
		for _, model := range models {
			t.Run(fmt.Sprintf("%s/%s", w.Name, model), func(t *testing.T) {
				cfg := SimConfig(model, 0)
				boot, err := NewRunner(w, RunnerOptions{Cfg: &cfg})
				if err != nil {
					t.Fatal(err)
				}
				restored, err := NewRunner(w, RunnerOptions{Cfg: &cfg, Checkpoint: boot.Ckpt})
				if err != nil {
					t.Fatal(err)
				}
				if restored.WindowInsts != boot.WindowInsts || restored.Cfg.MaxInsts != boot.Cfg.MaxInsts {
					t.Fatalf("restored window %d, watchdog %d; boot %d, %d", restored.WindowInsts,
						restored.Cfg.MaxInsts, boot.WindowInsts, boot.Cfg.MaxInsts)
				}
				if !reflect.DeepEqual(restored.Golden, boot.Golden) {
					t.Fatalf("restored golden %+v, boot %+v", restored.Golden, boot.Golden)
				}
				for _, e := range GenerateUniform(3, GenConfig{WindowInsts: boot.WindowInsts, Seed: 9}) {
					got, want := restored.Run(e), boot.Run(e)
					got.WallNs, want.WallNs = 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Errorf("exp %d (%s): restored %+v, boot %+v", e.ID, e.Faults[0], got, want)
					}
				}
			})
		}
	}
}

// TestBaselineRunnerInterrupt: Interrupt from another goroutine stops a
// DisableCheckpoint runner's experiment mid-run. The guest's
// fi_read_init_all pauses the run until the interrupt has been sent.
func TestBaselineRunnerInterrupt(t *testing.T) {
	r, err := NewRunner(workloads.MonteCarloPI(workloads.ScaleTest), RunnerOptions{DisableCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	reached, sent := make(chan struct{}), make(chan struct{})
	r.sim.OnCheckpoint = func(*sim.Simulator) {
		reached <- struct{}{}
		<-sent
	}
	go func() {
		<-reached
		r.Interrupt()
		close(sent)
	}()
	if res := r.Run(Experiment{ID: 1}); res.CrashCause != CrashInterrupted {
		t.Fatalf("interrupted run: %v %q, want crash cause %q", res.Outcome, res.CrashCause, CrashInterrupted)
	}
}
