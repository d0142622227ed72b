package campaign

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// crashFault is the PC bit-flip every flight test uses to force a
// crashed outcome (same fault as TestPCFaultCrashes).
func crashFault(r *Runner) core.Fault {
	return core.Fault{
		Loc: core.LocPC, Behavior: core.BehFlip, Bit: 30,
		Base: core.TimeInst, When: r.WindowInsts / 2, Occ: 1,
	}
}

// flightPiRunner is a pi runner recording the last 64 commits.
func flightPiRunner(t *testing.T) *Runner {
	t.Helper()
	return observedPiRunner(t, func(c *sim.Config) { c.EnableFlight, c.FlightDepth = true, 64 })
}

func TestFlightCrashedDump(t *testing.T) {
	r := flightPiRunner(t)
	if fr := r.Flight(); fr == nil || fr.Depth() != 64 {
		t.Fatal("EnableFlight with FlightDepth 64 did not give the runner a 64-record recorder")
	}
	res := r.Run(Experiment{ID: 3, Faults: []core.Fault{crashFault(r)}})
	if res.Outcome != OutcomeCrashed {
		t.Fatalf("outcome = %v, want crashed", res.Outcome)
	}
	pm := res.Postmortem
	if pm == nil {
		t.Fatal("crashed experiment produced no post-mortem")
	}
	// The dump's final record is the appended trap, carrying the exact
	// crash PC the simulator stopped at.
	last := pm.Records[len(pm.Records)-1]
	if !last.Trap {
		t.Error("final record is not the trap")
	}
	trap := r.sim.Core.Trap
	if trap == nil {
		t.Fatal("simulator holds no terminal trap after a crashed run")
	}
	if pm.FinalPC() != trap.PC || pm.CrashPC != trap.PC {
		t.Errorf("final pc %#x / crashPc %#x, want trap pc %#x", pm.FinalPC(), pm.CrashPC, trap.PC)
	}
	if res.InjPCValid {
		if !pm.InjPCValid || pm.InjPC != res.InjPC {
			t.Errorf("injection point not spliced: dump %#x(%v), result %#x", pm.InjPC, pm.InjPCValid, res.InjPC)
		}
	}
	if pm.Committed == 0 || len(pm.Records) < 2 {
		t.Errorf("dump too thin: committed %d, %d records", pm.Committed, len(pm.Records))
	}
	// The wire form must satisfy its own schema checker.
	var buf bytes.Buffer
	if err := pm.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := flight.ValidatePostmortemJSON(&buf); err != nil {
		t.Errorf("dump rejected by its validator: %v", err)
	}
}

func TestFlightMaskedNoDump(t *testing.T) {
	r := flightPiRunner(t)
	res := r.Run(Experiment{ID: 0})
	if res.Outcome != OutcomeNonPropagated {
		t.Fatalf("outcome = %v, want non-propagated", res.Outcome)
	}
	if res.Postmortem != nil {
		t.Error("masked experiment carries a post-mortem dump")
	}
}

func TestFlightRingResetsBetweenExperiments(t *testing.T) {
	r := flightPiRunner(t)
	a := r.Run(Experiment{ID: 0, Faults: []core.Fault{crashFault(r)}})
	if a.Postmortem == nil {
		t.Fatal("first crashed run produced no dump")
	}
	firstCommitted := a.Postmortem.Committed
	b := r.Run(Experiment{ID: 1, Faults: []core.Fault{crashFault(r)}})
	if b.Postmortem == nil {
		t.Fatal("second crashed run produced no dump")
	}
	// The ring belongs to one experiment: the second dump must not
	// accumulate the first run's commits.
	if b.Postmortem.Committed > firstCommitted {
		t.Errorf("ring leaked across experiments: run 2 committed %d > run 1 committed %d",
			b.Postmortem.Committed, firstCommitted)
	}
}

func TestFlightPhasesSplicedFromSpans(t *testing.T) {
	r := flightPiRunner(t)
	r.AttachSpans(obs.NewSpanRecorder(), "test")
	res := r.Run(Experiment{ID: 0, Faults: []core.Fault{crashFault(r)}})
	pm := res.Postmortem
	if pm == nil {
		t.Fatal("no dump")
	}
	if len(pm.Phases) == 0 {
		t.Fatal("span-traced dump carries no phase boundaries")
	}
	// The ring records must land inside the experiment's simulated phase
	// window: some phase's tick range reaches the last committed record.
	var lastCommitted uint64
	for _, rec := range pm.Records {
		if !rec.Trap {
			lastCommitted = rec.Tick
		}
	}
	covered := false
	for _, ph := range pm.Phases {
		if ph.EndTick >= lastCommitted && ph.EndTick > ph.StartTick {
			covered = true
		}
	}
	if !covered {
		t.Errorf("no phase tick range covers the final committed record (tick %d): %+v",
			lastCommitted, pm.Phases)
	}
}

func TestPoolFlightDumpsAndOnResult(t *testing.T) {
	cfg := defaultCampaignConfig()
	cfg.EnableFlight, cfg.FlightDepth = true, 32
	pool, err := NewPool(workloads.MonteCarloPI(workloads.ScaleTest), 2, RunnerOptions{Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	f := crashFault(pool.Runner())
	exps := []Experiment{
		{ID: 0, Faults: []core.Fault{f}},
		{ID: 1}, // masked
		{ID: 2, Faults: []core.Fault{f}},
	}
	seen := 0
	pool.OnResult = func(res Result) {
		if res.Postmortem != nil {
			seen++
		}
	}
	results := pool.RunAll(exps)
	dumps := 0
	for _, res := range results {
		switch res.Outcome {
		case OutcomeCrashed:
			if res.Postmortem == nil {
				t.Errorf("exp %d crashed without a dump", res.ID)
			} else {
				dumps++
			}
		case OutcomeNonPropagated:
			if res.Postmortem != nil {
				t.Errorf("exp %d masked but carries a dump", res.ID)
			}
		}
	}
	if dumps == 0 {
		t.Error("no crashed experiment in the pool run")
	}
	if seen != dumps {
		t.Errorf("OnResult saw %d dumps, results carry %d", seen, dumps)
	}
}

// TestFlightForkRunnerNeverMemoizes: a post-mortem covers the whole run,
// so a flight-recording fork runner must neither prune nor memoize. The
// fault (a PC flip early in deblock's window) resolves long before the
// crash it causes; a memo hit on its rerun would close the experiment
// at the memo point, with no crash having happened, so the dump would
// end there without the trap record.
func TestFlightForkRunnerNeverMemoizes(t *testing.T) {
	cfg := defaultCampaignConfig()
	cfg.EnableFlight, cfg.FlightDepth = true, 64
	r, err := NewRunner(workloads.Deblock(workloads.ScaleTest), RunnerOptions{Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultForkOptions()
	opts.TwinCheck = false // keep the memo point reachable
	if err := r.EnableFork(opts); err != nil {
		t.Fatal(err)
	}
	exp := Experiment{Faults: []core.Fault{{Loc: core.LocPC, Behavior: core.BehFlip, Bit: 10,
		Base: core.TimeInst, When: 713, Occ: 1}}}
	var committed uint64
	for run := 0; run < 2; run++ {
		res := r.Run(exp)
		pm := res.Postmortem
		if res.Outcome != OutcomeCrashed || pm == nil {
			t.Fatalf("run %d: outcome %v, dump %v; want a crash with a dump", run, res.Outcome, pm != nil)
		}
		if !pm.Records[len(pm.Records)-1].Trap {
			t.Errorf("run %d: final record is not the trap", run)
		}
		if run > 0 && pm.Committed != committed {
			t.Errorf("run %d: dump covers %d commits, the first run %d", run, pm.Committed, committed)
		}
		committed = pm.Committed
	}
	if st := r.ForkStats(); st.MemoEntries != 0 || st.MemoHits != 0 {
		t.Errorf("flight runner used the memo: %d entries, %d hits", st.MemoEntries, st.MemoHits)
	}
}
