package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestHooklessWindowMakesNoHookCalls guards the detailed models' fast
// path structurally. A fault-free engine is quiescent, so a run of pi
// with fault injection enabled may make no counted hook call beyond the
// commit hook of each window-opening fi_activate_inst; the same run
// under DisableFastPath hooks every instruction inside the window. A
// model that lost its hookless path would still pass every identity
// test, only slower; this is the test that fails.
func TestHooklessWindowMakesNoHookCalls(t *testing.T) {
	w, err := workloads.ByName("pi", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []sim.ModelKind{sim.ModelTiming, sim.ModelPipelined} {
		run := func(cold bool) *sim.Simulator {
			s := sim.New(sim.Config{Model: model, EnableFI: true, MaxInsts: 200_000_000, DisableFastPath: cold})
			if err := s.Load(p); err != nil {
				t.Fatal(err)
			}
			if r := s.Run(); !r.Exited || r.ExitStatus != 0 {
				t.Fatalf("%s cold=%v: run did not exit cleanly: %+v", model, cold, r)
			}
			return s
		}
		fast, cold := run(false), run(true)
		if fast.Engine.Activations == 0 {
			t.Fatalf("%s: the window never opened", model)
		}
		if fast.Engine.HookCalls > fast.Engine.Activations {
			t.Errorf("%s: %d hook calls for %d activations: the quiescent window is hooked",
				model, fast.Engine.HookCalls, fast.Engine.Activations)
		}
		if win := cold.Engine.WindowCommits(); cold.Engine.HookCalls < win {
			t.Errorf("%s: DisableFastPath made %d hook calls for %d instructions inside the window",
				model, cold.Engine.HookCalls, win)
		}
	}
}

// twoWindowProgram runs two threads, each with its own fault-injection
// window open across a loop, so a short scheduling quantum preempts
// each inside its window.
const twoWindowProgram = `
int sums[2];

void worker(int id) {
    fi_activate(1);
    int s = 0;
    for (int i = 0; i < 300; i = i + 1) { s = s + 3; }
    sums[1] = s;
    fi_activate(1);
    thread_exit();
}

int main() {
    fi_checkpoint();
    int tid = spawn(worker, 0);
    fi_activate(0);
    int s = 0;
    for (int i = 0; i < 300; i = i + 1) { s = s + 5; }
    sums[0] = s;
    fi_activate(0);
    join(tid);
    return 0;
}`

// TestHooklessCountsFollowThreadSwitches pins hookless stage counts to
// the thread that ran them. Two threads switch inside their open
// windows every 37 commits; the fast run's window state must equal the
// DisableFastPath referee's at every pause, so a commit tallied just
// before a preemption lands on the thread switched out.
func TestHooklessCountsFollowThreadSwitches(t *testing.T) {
	p, err := minic.Compile(twoWindowProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []sim.ModelKind{sim.ModelTiming, sim.ModelPipelined} {
		load := func(cold bool) *sim.Simulator {
			s := sim.New(sim.Config{Model: model, EnableFI: true, Quantum: 37, MaxInsts: 10_000_000, DisableFastPath: cold})
			if err := s.Load(p); err != nil {
				t.Fatal(err)
			}
			return s
		}
		fast, cold := load(false), load(true)
		twoOpen := 0
		for pause := 0; ; pause++ {
			until := fast.Core.Insts + 101
			rf, rc := fast.RunUntil(until), cold.RunUntil(until)
			if rf.Paused != rc.Paused || rf.Insts != rc.Insts || rf.Ticks != rc.Ticks {
				t.Fatalf("%s: pause %d diverged: %+v vs %+v", model, pause, rf, rc)
			}
			fw, cw := fast.Engine.CaptureWindow(), cold.Engine.CaptureWindow()
			if !reflect.DeepEqual(fw, cw) {
				t.Fatalf("%s: pause %d at %d insts: window state diverged:\nfast %+v\ncold %+v",
					model, pause, rf.Insts, fw, cw)
			}
			if len(fw.Threads) == 2 {
				twoOpen++
			}
			if !rf.Paused {
				if !rf.Exited || rf.ExitStatus != 0 {
					t.Fatalf("%s: run did not exit cleanly: %+v", model, rf)
				}
				break
			}
		}
		if twoOpen == 0 {
			t.Errorf("%s: no pause found both windows open", model)
		}
	}
}

// TestArmedRunMakesFewHookCalls guards the armed-ahead fast path: a run
// with one register fault armed at the window's last commit stays
// hookless until the trigger is within reach, so it may make only a
// handful of hook calls where the DisableFastPath referee makes one per
// stage event of the whole window. Its instruction and tick totals and
// the fault's outcome must equal the referee's.
func TestArmedRunMakesFewHookCalls(t *testing.T) {
	const maxHookCalls = 64
	for _, name := range []string{"pi", "canneal"} {
		w, err := workloads.ByName(name, workloads.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		golden := sim.New(sim.Config{Model: sim.ModelAtomic, EnableFI: true, MaxInsts: 200_000_000})
		if err := golden.Load(p); err != nil {
			t.Fatal(err)
		}
		if r := golden.Run(); !r.Exited {
			t.Fatalf("%s: golden run: %+v", name, r)
		}
		f := core.Fault{Loc: core.LocIntReg, Reg: 3, Behavior: core.BehFlip, Bit: 7,
			Base: core.TimeInst, When: golden.Engine.WindowCommits() - 1, Occ: 1}
		for _, model := range []sim.ModelKind{sim.ModelAtomic, sim.ModelPipelined} {
			run := func(cold bool) (*sim.Simulator, sim.RunResult) {
				cfg := sim.DefaultConfig()
				cfg.Model, cfg.Faults, cfg.MaxInsts, cfg.DisableFastPath = model, []core.Fault{f}, 200_000_000, cold
				s := sim.New(cfg)
				if err := s.Load(p); err != nil {
					t.Fatal(err)
				}
				return s, s.Run()
			}
			fast, rf := run(false)
			cold, rc := run(true)
			label := name + "/" + string(model)
			if !rc.Outcomes[0].Fired {
				t.Fatalf("%s: the fault never fired: %+v", label, rc)
			}
			if rf.Insts != rc.Insts || rf.Ticks != rc.Ticks || !reflect.DeepEqual(rf.Outcomes, rc.Outcomes) {
				t.Errorf("%s: run diverged from the referee: %+v vs %+v", label, rf, rc)
			}
			if fast.Engine.HookCalls > maxHookCalls {
				t.Errorf("%s: %d hook calls with one fault armed (referee %d), want at most %d",
					label, fast.Engine.HookCalls, cold.Engine.HookCalls, maxHookCalls)
			}
			t.Logf("%s: %d hook calls, referee %d", label, fast.Engine.HookCalls, cold.Engine.HookCalls)
		}
	}
}
