package sim

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// traceNames counts the names in a run's span tree: every span and
// every span event.
func traceNames(tr *obs.Trace) map[string]int {
	names := map[string]int{}
	for _, sp := range tr.Spans {
		names[sp.Name]++
		for _, ev := range sp.Events {
			names[ev.Name]++
		}
	}
	return names
}

// TestObsInjectionLifecycle runs a register fault with full observability
// on and checks the whole armed -> injected -> first-read/masked chain
// lands on the run's span tree, and that the registry dump covers CPU,
// cache and FI counters — the acceptance surface of the observability
// subsystem.
func TestObsInjectionLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	fault := core.Fault{
		Loc: core.LocIntReg, Reg: 6, /* t5, the live accumulator */
		Behavior: core.BehFlip, Bit: 3, ThreadID: 0,
		Base: core.TimeInst, When: 5, Occ: 1,
	}
	s := newSim(t, Config{
		Model: ModelTiming, EnableFI: true,
		Faults:  []core.Fault{fault},
		Metrics: reg,
	})
	rec := obs.NewSpanRecorder()
	r, tr := s.RunTraced(rec)
	if r.Hung {
		t.Fatalf("run hung: %+v", r)
	}

	names := traceNames(tr)
	if names["fault.armed"] == 0 {
		t.Error("no fault.armed event")
	}
	if names["fault.injected"] == 0 {
		t.Error("no fault.injected event")
	}
	if names["fi-window"] == 0 {
		t.Errorf("missing FI window phase: %v", names)
	}
	// The corrupted accumulator is read by the next loop iteration, so
	// the register-read terminal event must fire — not just any terminal.
	if names["fault.first-read"] == 0 {
		t.Errorf("no fault.first-read terminal event for a live register fault: %v", names)
	}
	if names["run"] == 0 {
		t.Errorf("no run span: %v", names)
	}

	byName := map[string]obs.Metric{}
	for _, m := range reg.Snapshot() {
		byName[m.Name] = m
	}
	for _, want := range []string{
		"cpu.insts", "cpu.ticks",
		"mem.l1d.hits", "mem.l1d.misses", "mem.l1i.hits",
		"fi.injections", "fi.activations", "fi.hook_calls",
		"sim.checkpoint.hits",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("registry missing %q", want)
		}
	}
	if byName["cpu.insts"].Value != float64(r.Insts) {
		t.Errorf("cpu.insts = %g, want %d", byName["cpu.insts"].Value, r.Insts)
	}
	if byName["fi.injections"].Value < 1 {
		t.Error("fi.injections not counted")
	}
	if byName["mem.l1d.hits"].Value == 0 && byName["mem.l1d.misses"].Value == 0 {
		t.Error("cache counters never moved on the timing model")
	}

	// The span tree must satisfy the span schema and the Chrome export
	// must be loadable JSON.
	var jsonl bytes.Buffer
	if err := obs.WriteTraceJSONL(&jsonl, *tr); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateSpansJSONL(&jsonl); err != nil {
		t.Fatalf("run's span tree fails the schema: %v", err)
	}
	var chrome bytes.Buffer
	if err := rec.WriteSpansChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if chrome.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}

// TestObsMemFaultFirstLoad: a LocMem fault corrupts a load value in the
// kernel loop; the first consumption is the load itself, so the memory
// analogue of fault.first-read — fault.first-load — must fire (the
// register terminal must not: no architectural register was corrupted
// directly).
func TestObsMemFaultFirstLoad(t *testing.T) {
	fault := core.Fault{
		Loc: core.LocMem, Behavior: core.BehFlip, Bit: 2, ThreadID: 0,
		Base: core.TimeInst, When: 3, Occ: 1,
	}
	s := newSim(t, Config{
		Model: ModelTiming, EnableFI: true,
		Faults: []core.Fault{fault},
	})
	r, tr := s.RunTraced(obs.NewSpanRecorder())
	if r.Hung {
		t.Fatalf("run hung: %+v", r)
	}
	names := traceNames(tr)
	if names["fault.injected"] == 0 {
		t.Fatalf("memory fault never injected: %v", names)
	}
	if names["fault.first-load"] == 0 {
		t.Errorf("no fault.first-load terminal event for a memory fault: %v", names)
	}
	if names["fault.first-read"] != 0 {
		t.Errorf("memory fault wrongly produced a register first-read: %v", names)
	}
}

// TestObsCheckpointEvents verifies capture/restore instrumentation.
func TestObsCheckpointEvents(t *testing.T) {
	reg := obs.NewRegistry()
	s := newSim(t, Config{Model: ModelAtomic, EnableFI: true, Metrics: reg})
	st, _, err := s.RunToCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	s.Restore(st, nil)
	if r := s.Run(); !r.Exited || r.ExitStatus != 0 {
		t.Fatalf("restored run failed: %+v", r)
	}
	byName := map[string]obs.Metric{}
	for _, m := range reg.Snapshot() {
		byName[m.Name] = m
	}
	if byName["sim.checkpoint.captures"].Value != 1 || byName["sim.checkpoint.restores"].Value != 1 {
		t.Errorf("checkpoint counters: captures=%g restores=%g",
			byName["sim.checkpoint.captures"].Value, byName["sim.checkpoint.restores"].Value)
	}
}

// TestInterrupt stops an infinite loop from another goroutine.
func TestInterrupt(t *testing.T) {
	s := newSim(t, Config{Model: ModelAtomic, EnableFI: true})
	s.Interrupt() // pre-set: the run must notice at its first poll
	r := s.Run()
	if !r.Interrupted {
		t.Fatalf("run not interrupted: %+v", r)
	}
	// The simulator stays usable: the next Run completes normally.
	r = s.Run()
	if !r.Exited || r.ExitStatus != 0 {
		t.Fatalf("run after interrupt failed: %+v", r)
	}
}

// TestObsDisabledIsFreeOfSideEffects: metrics and spans on must not
// change the run, and with both off every instrumentation site must be
// nil-safe.
func TestObsDisabledIsFreeOfSideEffects(t *testing.T) {
	fault := core.Fault{
		Loc: core.LocIntReg, Reg: 6, Behavior: core.BehFlip, Bit: 3,
		ThreadID: 0, Base: core.TimeInst, When: 5, Occ: 1,
	}
	plain := newSim(t, Config{Model: ModelTiming, EnableFI: true, Faults: []core.Fault{fault}}).Run()
	instr, _ := newSim(t, Config{Model: ModelTiming, EnableFI: true, Faults: []core.Fault{fault},
		Metrics: obs.NewRegistry()}).RunTraced(obs.NewSpanRecorder())
	if plain.Insts != instr.Insts || plain.Ticks != instr.Ticks || plain.ExitStatus != instr.ExitStatus {
		t.Errorf("observability changed the simulation: %+v vs %+v", plain, instr)
	}
}
