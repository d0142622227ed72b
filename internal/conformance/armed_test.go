package conformance

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// armedCase is the committed pi case: a register fault on the stretch a
// trigger walk shares, which a budget taken from the fetch index alone
// gets wrong on the serial models (fi_activate counts a commit of the
// window but not its fetch).
const armedCase = "RegisterInjectedFault Inst:1808 Flip:47 Threadid:0 system.cpu0 occ:1 int 11"

// armedLocations is one fault of every location, its trigger left for
// armedTriggers to fill in.
var armedLocations = []core.Fault{
	{Loc: core.LocIntReg, Reg: 11, Behavior: core.BehFlip, Bit: 47},
	{Loc: core.LocFloatReg, Reg: 2, Behavior: core.BehFlip, Bit: 51},
	{Loc: core.LocSpecialReg, Behavior: core.BehFlip, Bit: 3},
	{Loc: core.LocFetch, Behavior: core.BehFlip, Bit: 5},
	{Loc: core.LocDecode, Reg: 1, Behavior: core.BehFlip, Bit: 2},
	{Loc: core.LocExec, Behavior: core.BehFlip, Bit: 9},
	{Loc: core.LocMem, Behavior: core.BehFlip, Bit: 5},
	{Loc: core.LocPC, Behavior: core.BehFlip, Bit: 12},
	{Loc: core.LocBus, Behavior: core.BehFlip, Bit: 3},
	{Loc: core.LocIO, Behavior: core.BehFlip, Bit: 1},
}

// armedFar is how far past the fork point the far trigger lies.
const armedFar = 5000

// armedTriggers times f against the fork point's counter for its stage:
// budgets at the fork of cpu.PipeSlack-1, cpu.PipeSlack and
// cpu.PipeSlack+1, which straddle the pipelined model's admission edge
// (PipeSlack is the budget it needs to fetch hookless), and two
// triggers far past the fork, close enough that a walk reaches the
// first with the second still armed.
func armedTriggers(f core.Fault, fp *checkpoint.ForkPoint) [][]core.Fault {
	var t core.ThreadEnabledFault
	for _, th := range fp.Window.Threads {
		t = th
	}
	count := t.Commits
	switch f.Loc {
	case core.LocFetch:
		count = t.Fetches
	case core.LocDecode:
		count = t.Decodes
	case core.LocExec, core.LocMem, core.LocBus:
		count = t.Execs
	}
	var out [][]core.Fault
	for _, k := range []uint64{cpu.PipeSlack, cpu.PipeSlack + 1, cpu.PipeSlack + 2, armedFar, armedFar + cpu.PipeSlack} {
		g := f
		g.Base, g.Occ, g.When = core.TimeInst, 1, count+k // budget k-1 at the fork
		out = append(out, []core.Fault{g})
	}
	return out
}

// TestArmedAheadReferee pins the armed-ahead fast path to the
// DisableFastPath referee. Every fault location runs on every CPU model
// three ways: replayed from the fi_read_init_all checkpoint, forked alone
// from a mid-window fork point, and as members of one trigger walk from
// that fork point. The triggers sit at the pipelined model's admission
// edge and far past the fork, and the committed pi case rides along.
// Each run must match the referee's cold replay or cold lone fork in
// machine state, disposition, totals, every FaultOutcome field (fired
// count, tick and PC included) and the engine's window state, both at
// the end and paused at the trigger's instruction.
func TestArmedAheadReferee(t *testing.T) {
	w := workloads.MonteCarloPI(workloads.ScaleTest)
	trunk := loadSim(t, w, sim.Config{Model: sim.ModelAtomic, EnableFI: true, MaxInsts: 200_000_000})
	ckpt, _, err := trunk.RunToCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	res := sim.RunResult{Paused: true}
	for res.Paused && !trunk.Engine.WindowOpen() {
		res = trunk.RunUntil(trunk.Core.Insts + 512)
	}
	if res = trunk.RunUntil(trunk.Core.Insts + 1000); !res.Paused || !trunk.Engine.WindowOpen() {
		t.Fatalf("trunk left the window before the fork point: %+v", res)
	}
	fp := trunk.CaptureForkPoint()
	pinned, err := core.ParseFault(armedCase)
	if err != nil {
		t.Fatal(err)
	}

	// Each location's group: its five triggers, and the pinned case with
	// the register faults.
	var groups [][][]core.Fault
	for _, f := range armedLocations {
		g := armedTriggers(f, fp)
		if f.Loc == pinned.Loc {
			g = append(g, []core.Fault{pinned})
		}
		groups = append(groups, g)
	}

	fired := 0
	for _, model := range []sim.ModelKind{sim.ModelAtomic, sim.ModelTiming, sim.ModelPipelined} {
		newSim := func(cold bool) *sim.Simulator {
			cfg := sim.DefaultConfig()
			cfg.Model, cfg.MaxInsts, cfg.DisableFastPath = model, 20_000_000, cold
			return loadSim(t, w, cfg)
		}
		fast, cold, walker := newSim(false), newSim(true), newSim(false)
		// runPair starts fast and cold with start, pauses both at the
		// trigger's instruction, compares the window state there, and
		// runs both out.
		runPair := func(label string, faults []core.Fault, start func(*sim.Simulator)) {
			start(fast)
			start(cold)
			at := fp.Core.Insts + faults[0].When - fp.WindowCommits()
			if pf, pc := fast.RunUntil(at), cold.RunUntil(at); pf.Paused != pc.Paused ||
				!reflect.DeepEqual(fast.Engine.CaptureWindow(), cold.Engine.CaptureWindow()) {
				t.Errorf("%s: paused at inst %d: window state diverged:\nfast %+v\ncold %+v",
					label, at, fast.Engine.CaptureWindow(), cold.Engine.CaptureWindow())
			}
			rf, rc := fast.Run(), cold.Run()
			compareFaultRuns(t, label, fast, cold, rf, rc)
			if rc.Outcomes[0].Fired {
				fired++
			}
		}
		for _, group := range groups {
			for _, faults := range group {
				label := fmt.Sprintf("%s/%s@%d", model, faults[0].Loc, faults[0].When)
				runPair(label+"/replay", faults, func(s *sim.Simulator) { s.Restore(ckpt, faults) })
				runPair(label+"/fork", faults, func(s *sim.Simulator) { s.ForkFrom(fp, faults) })
			}
			walkGroup(t, model, fp, group, walker, cold)
		}
	}
	if fired < 60 {
		t.Errorf("only %d referee runs fired their fault: the triggers miss the window", fired)
	}
}

// walkGroup walks group's experiments from fp together on walker, as a
// fork campaign does, and pins each member's run to a cold lone fork.
func walkGroup(t *testing.T, model sim.ModelKind, fp *checkpoint.ForkPoint, group [][]core.Fault,
	walker, cold *sim.Simulator) {
	t.Helper()
	check := func(faults []core.Fault, rw sim.RunResult) {
		cold.ForkFrom(fp, faults)
		rc := cold.Run()
		label := fmt.Sprintf("%s/%s@%d/walk", model, faults[0].Loc, faults[0].When)
		compareFaultRuns(t, label, walker, cold, rw, rc)
	}
	// Every member holds one fault, so a fault's position in the armed
	// list is its member's.
	from, pending := fp, group
	for len(pending) > 0 {
		var all []core.Fault
		for _, faults := range pending {
			all = append(all, faults...)
		}
		walker.ForkFrom(from, all)
		res, src := walker.WalkToDue()
		if !res.Paused {
			// The run ended before any member's fault could act: it is
			// every remaining member's own run.
			for i, faults := range pending {
				own := res
				own.Outcomes = res.Outcomes[i : i+1]
				check(faults, own)
			}
			return
		}
		member := pending[src]
		pending = append(pending[:src:src], pending[src+1:]...)
		var next *checkpoint.ForkPoint
		if len(pending) > 0 {
			next = walker.CaptureWalkPoint()
		}
		walker.Engine.ResetWithWindow(member, walker.Engine.CaptureWindow())
		check(member, walker.Run())
		from = next
	}
}
