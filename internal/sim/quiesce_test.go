package sim

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
)

// These tests pin engine quiescence: once every fault is exhausted and
// nothing it struck is in flight, the rest of the FI window runs on the
// atomic fast path and translated blocks, with outstanding register
// taint watched rather than blocking. Each case runs the translated
// default path against the DisableFastPath referee and demands identical
// fault outcomes and counters.

// quiesceRun assembles src and runs it to completion on the atomic model,
// translated or as the cold referee, as a span tree and with a metrics
// registry on the machine.
func quiesceRun(t *testing.T, src string, f core.Fault, cold bool) (*Simulator, RunResult, *obs.Trace) {
	t.Helper()
	s := loadAsm(t, src, Config{
		Model: ModelAtomic, EnableFI: true, Faults: []core.Fault{f}, MaxInsts: 1_000_000,
		EnableBlockTranslation: !cold, DisableFastPath: cold, Metrics: obs.NewRegistry(),
	})
	r, tr := s.RunTraced(obs.NewSpanRecorder())
	if !r.Exited {
		t.Fatalf("cold=%v: run did not exit: %+v", cold, r)
	}
	return s, r, tr
}

// compareQuiesced asserts the translated run matches the referee on
// everything the fault engine and the core report.
func compareQuiesced(t *testing.T, fast, cold *Simulator, rf, rc RunResult) {
	t.Helper()
	if !reflect.DeepEqual(rf.Outcomes, rc.Outcomes) {
		t.Errorf("fault outcomes diverged:\nfast %+v\ncold %+v", rf.Outcomes, rc.Outcomes)
	}
	if rf.Insts != rc.Insts || rf.Ticks != rc.Ticks || rf.ExitStatus != rc.ExitStatus {
		t.Errorf("run diverged: fast %d insts/%d ticks/exit %d, cold %d/%d/%d",
			rf.Insts, rf.Ticks, rf.ExitStatus, rc.Insts, rc.Ticks, rc.ExitStatus)
	}
	if fast.Core.Arch != cold.Core.Arch {
		t.Error("architectural state diverged")
	}
	if fw, cw := fast.Engine.CaptureWindow(), cold.Engine.CaptureWindow(); !reflect.DeepEqual(fw, cw) {
		t.Errorf("window state diverged:\nfast %+v\ncold %+v", fw, cw)
	}
}

// eventTicks returns the ticks of every span event with the given name.
func eventTicks(tr *obs.Trace, name string) []uint64 {
	var ticks []uint64
	for _, sp := range tr.Spans {
		for _, e := range sp.Events {
			if e.Name == name {
				ticks = append(ticks, e.Tick)
			}
		}
	}
	return ticks
}

// untouchedRegProgram opens the window, spins in a loop that never
// touches s5, and exits with the loop count.
const untouchedRegProgram = `
_start:
    li   a0, 0
    fi_activate_inst
    li   t0, 3000
loop:
    addq t1, #1, t1
    subq t0, #1, t0
    bne  t0, loop
    li   a0, 0
    fi_activate_inst
    mov  t1, a0
    li   v0, 1
    callsys
`

// TestQuiescentRegFaultRunsTranslated: a register fault on a register the
// guest never touches again leaves only watched taint behind, so the
// window's loop runs translated right after the fault fires, and the
// fault reports Propagated=false exactly as the cold path does.
func TestQuiescentRegFaultRunsTranslated(t *testing.T) {
	f := core.Fault{Loc: core.LocIntReg, Reg: int(isa.RegS5), Behavior: core.BehFlip, Bit: 3,
		Base: core.TimeInst, When: 5, Occ: 1}
	fast, rf, _ := quiesceRun(t, untouchedRegProgram, f, false)
	cold, rc, _ := quiesceRun(t, untouchedRegProgram, f, true)
	compareQuiesced(t, fast, cold, rf, rc)
	o := rf.Outcomes[0]
	if !o.Fired || o.Propagated || o.Overwritten {
		t.Errorf("outcome %+v, want fired, not propagated, not overwritten", o)
	}
	// The prologue before the window is straight-line code, so every
	// translated instruction ran inside the window.
	if st := fast.BBT.Stats; st.Insts < 6000 {
		t.Errorf("only %d instructions ran translated inside the window: %+v", st.Insts, st)
	}
	if fast.Engine.Quiesced != 1 {
		t.Errorf("engine quiesced %d times, want 1", fast.Engine.Quiesced)
	}
}

// laterReadProgram translates a subroutine that reads s5 before the
// window opens, then calls it again inside the window after a long loop
// that leaves s5 alone: the translated block touches a watched register
// and must fall back so the first read reaches the engine.
const laterReadProgram = `
_start:
    li   s0, 20
warm:
    bsr  ra, use
    subq s0, #1, s0
    bne  s0, warm
    li   a0, 0
    fi_activate_inst
    li   t0, 3000
loop:
    addq t1, #1, t1
    subq t0, #1, t0
    bne  t0, loop
    bsr  ra, use
    li   a0, 0
    fi_activate_inst
    mov  t2, a0
    li   v0, 1
    callsys
use:
    addq s5, #1, t2
    ret
`

// TestQuiescentRegFaultReadPropagates: a register fault whose register is
// read later sets Propagated at the same instruction as the cold path —
// the fault.first-read event carries the same tick — although the window
// runs translated in between.
func TestQuiescentRegFaultReadPropagates(t *testing.T) {
	f := core.Fault{Loc: core.LocIntReg, Reg: int(isa.RegS5), Behavior: core.BehFlip, Bit: 3,
		Base: core.TimeInst, When: 5, Occ: 1}
	fast, rf, ftr := quiesceRun(t, laterReadProgram, f, false)
	cold, rc, ctr := quiesceRun(t, laterReadProgram, f, true)
	compareQuiesced(t, fast, cold, rf, rc)
	if o := rf.Outcomes[0]; !o.Fired || !o.Propagated || o.Overwritten {
		t.Errorf("outcome %+v, want fired and propagated", o)
	}
	if rf.ExitStatus != 9 {
		t.Errorf("exit %d, want 9 (s5 = 8 after the flip, plus one)", rf.ExitStatus)
	}
	ft, ct := eventTicks(ftr, "fault.first-read"), eventTicks(ctr, "fault.first-read")
	if len(ft) != 1 || !reflect.DeepEqual(ft, ct) {
		t.Errorf("fault.first-read at ticks %v, cold path %v", ft, ct)
	}
	// /metrics tells why the window ran where it did.
	metrics := map[string]float64{}
	for _, m := range fast.Cfg.Metrics.Snapshot() {
		metrics[m.Name] = m.Value
	}
	if metrics["fi.quiesced"] != 1 {
		t.Errorf("fi.quiesced = %g, want 1", metrics["fi.quiesced"])
	}
	if metrics["cpu.bbt.watch_fallbacks"] == 0 {
		t.Errorf("the warm block reading s5 was never declined: %+v", fast.BBT.Stats)
	}
}

// storeFaultProgram stores a value that a store-value fault corrupts,
// spins without touching memory, loads the corrupted word back, and
// spins again; it exits with the loaded value.
const storeFaultProgram = `
_start:
    la   a1, buf
    li   a0, 0
    fi_activate_inst
    li   t0, 77
    stq  t0, 0(a1)
    li   t3, 3000
spin:
    addq t1, #1, t1
    subq t3, #1, t3
    bne  t3, spin
    ldq  t2, 0(a1)
    li   t3, 3000
spin2:
    addq t1, #1, t1
    subq t3, #1, t3
    bne  t3, spin2
    li   a0, 0
    fi_activate_inst
    mov  t2, a0
    li   v0, 1
    callsys
    .data
buf:
    .space 8
`

// TestStoreFaultStaysSlowUntilLoaded: a store-value fault leaves a
// corrupted word in memory whose first load decides propagation, so the
// engine is not quiescent — every step stays on the hooked slow path —
// until that load commits; afterwards the second loop runs translated.
func TestStoreFaultStaysSlowUntilLoaded(t *testing.T) {
	f := core.Fault{Loc: core.LocMem, Behavior: core.BehFlip, Bit: 2,
		Base: core.TimeInst, When: 1, Occ: 1}
	cold, rc, _ := quiesceRun(t, storeFaultProgram, f, true)

	prog, err := asm.Assemble(storeFaultProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	s := New(Config{Model: ModelAtomic, EnableFI: true, Faults: []core.Fault{f}, MaxInsts: 1_000_000,
		EnableBlockTranslation: true})
	if err := s.Load(prog); err != nil {
		t.Fatal(err)
	}
	// Pause in the middle of the first spin loop: the corrupted store has
	// committed, its word has not been loaded yet.
	if r := s.RunUntil(2000); !r.Paused {
		t.Fatalf("did not pause inside the window: %+v", r)
	}
	if !s.Engine.Outcomes()[0].Fired {
		t.Fatal("store-value fault has not fired by the pause point")
	}
	if b, _, _ := s.Engine.FastPath(); b != 0 {
		t.Error("engine admits hookless steps while the corrupted store is unread")
	}
	if st := s.BBT.Stats; st.Insts != 0 || st.Fallbacks < 1900 {
		t.Errorf("steps left the slow path before the load: %+v", st)
	}
	rf := s.Run()
	compareQuiesced(t, s, cold, rf, rc)
	if o := rf.Outcomes[0]; !o.Fired || !o.Propagated {
		t.Errorf("outcome %+v, want fired and propagated by the load", o)
	}
	if rf.ExitStatus != 77^4 {
		t.Errorf("exit %d, want %d", rf.ExitStatus, 77^4)
	}
	if st := s.BBT.Stats; st.Insts < 6000 {
		t.Errorf("the post-load loop did not run translated: %+v", st)
	}
	if s.Engine.Quiesced != 1 {
		t.Errorf("engine quiesced %d times, want 1", s.Engine.Quiesced)
	}
}
