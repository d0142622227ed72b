package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// TestParsePaperListing1 parses the exact line of the paper's Listing 1.
func TestParsePaperListing1(t *testing.T) {
	line := `"RegisterInjectedFault Inst:2457 Flip:21 Threadid:0 system.cpu1 occ:1 int 1"`
	fs, err := ParseFaults(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("parsed %d faults", len(fs))
	}
	f := fs[0]
	if f.Loc != LocIntReg || f.Reg != 1 || f.Bit != 21 || f.Behavior != BehFlip {
		t.Errorf("location/behavior wrong: %+v", f)
	}
	if f.When != 2457 || f.Base != TimeInst || f.ThreadID != 0 || f.Occ != 1 {
		t.Errorf("timing wrong: %+v", f)
	}
	if f.CPU != "system.cpu1" {
		t.Errorf("cpu = %q", f.CPU)
	}
}

func TestParseAllFaultTypes(t *testing.T) {
	lines := map[string]Location{
		"RegisterInjectedFault Inst:1 Flip:0 Threadid:0 occ:1 float 7":      LocFloatReg,
		"RegisterInjectedFault Inst:1 Flip:0 Threadid:0 occ:1 special 0":    LocSpecialReg,
		"GeneralFetchInjectedFault Inst:5 Flip:13 Threadid:0 occ:1":         LocFetch,
		"RegisterDecodingInjectedFault Inst:5 Flip:2 Threadid:0 occ:1 op 1": LocDecode,
		"ExecutionInjectedFault Tick:100 XOR:0xff Threadid:0 occ:2":         LocExec,
		"MemoryInjectedFault Inst:9 AllZero Threadid:1 occ:all":             LocMem,
		"PCInjectedFault Inst:3 Imm:65536 Threadid:0 occ:1":                 LocPC,
	}
	for line, wantLoc := range lines {
		f, err := ParseFault(line)
		if err != nil {
			t.Errorf("%q: %v", line, err)
			continue
		}
		if f.Loc != wantLoc {
			t.Errorf("%q: loc %v want %v", line, f.Loc, wantLoc)
		}
	}
}

func TestParseBehaviorsAndTiming(t *testing.T) {
	f, err := ParseFault("MemoryInjectedFault Tick:42 XOR:0xdeadbeef Threadid:3 occ:5")
	if err != nil {
		t.Fatal(err)
	}
	if f.Base != TimeTick || f.When != 42 || f.Behavior != BehXor ||
		f.Value != 0xdeadbeef || f.ThreadID != 3 || f.Occ != 5 {
		t.Errorf("parsed %+v", f)
	}
	perm, err := ParseFault("RegisterInjectedFault Inst:1 AllOne Threadid:0 occ:all int 9")
	if err != nil {
		t.Fatal(err)
	}
	if perm.Occ != PermanentOcc || perm.Behavior != BehAllOne {
		t.Errorf("permanent fault %+v", perm)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"WeirdFault Inst:1 Flip:1 occ:1",
		"RegisterInjectedFault Flip:1 occ:1 int 1",   // missing time
		"RegisterInjectedFault Inst:1 occ:1 int 1",   // missing behavior
		"RegisterInjectedFault Inst:1 Flip:99 int 1", // bit out of range
		"RegisterInjectedFault Inst:1 Flip:1 int 40", // register out of range
		"RegisterInjectedFault Inst:1 Flip:1 occ:0 int 1",
		"RegisterDecodingInjectedFault Inst:1 Flip:1 op 5",
		"MemoryInjectedFault Inst:1 Flip:1 bogus",
	}
	for _, line := range bad {
		if _, err := ParseFault(line); err == nil {
			t.Errorf("expected error for %q", line)
		}
	}
}

// TestFaultStringRoundTrip: rendering a fault and re-parsing it yields
// the same fault.
func TestFaultStringRoundTrip(t *testing.T) {
	faults := []Fault{
		{Loc: LocIntReg, Reg: 5, Behavior: BehFlip, Bit: 21, ThreadID: 0, Base: TimeInst, When: 2457, Occ: 1},
		{Loc: LocFloatReg, Reg: 30, Behavior: BehXor, Value: 0xff, ThreadID: 2, Base: TimeTick, When: 9, Occ: 3},
		{Loc: LocFetch, Behavior: BehAllZero, Base: TimeInst, When: 1, Occ: PermanentOcc},
		{Loc: LocDecode, Reg: 2, Behavior: BehFlip, Bit: 4, Base: TimeInst, When: 7, Occ: 1},
		{Loc: LocPC, Behavior: BehSet, Value: 4096, Base: TimeInst, When: 3, Occ: 1},
	}
	for _, f := range faults {
		back, err := ParseFault(f.String())
		if err != nil {
			t.Errorf("%v: %v", f, err)
			continue
		}
		// The renderer fills in a default CPU name.
		f.CPU = back.CPU
		if back != f {
			t.Errorf("round trip:\n  in  %+v\n  out %+v", f, back)
		}
	}
}

func TestCorruptBehaviors(t *testing.T) {
	old := uint64(0b1010)
	cases := []struct {
		f    Fault
		want uint64
	}{
		{Fault{Behavior: BehFlip, Bit: 0}, 0b1011},
		{Fault{Behavior: BehFlip, Bit: 3}, 0b0010},
		{Fault{Behavior: BehXor, Value: 0xF}, 0b0101},
		{Fault{Behavior: BehSet, Value: 7}, 7},
		{Fault{Behavior: BehAllZero}, 0},
		{Fault{Behavior: BehAllOne}, ^uint64(0)},
	}
	for _, tc := range cases {
		if got := tc.f.Corrupt(old, 64); got != tc.want {
			t.Errorf("%v(%b) = %b want %b", tc.f.Behavior, old, got, tc.want)
		}
	}
}

func TestCorruptWidthMask(t *testing.T) {
	f := Fault{Behavior: BehAllOne}
	if got := f.Corrupt(0, 5); got != 31 {
		t.Errorf("5-bit all-one = %d", got)
	}
	flip := Fault{Behavior: BehFlip, Bit: 40}
	if got := flip.Corrupt(0, 32); got != 0 {
		t.Errorf("flip beyond width must mask away: %d", got)
	}
	prop := func(old uint64, bit uint8) bool {
		f := Fault{Behavior: BehFlip, Bit: int(bit % 64)}
		v := f.Corrupt(old, 32)
		return v <= 0xFFFFFFFF
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// engineWith returns an engine with one thread activated at PCB 0x1000.
func engineWith(faults ...Fault) *Engine {
	e := NewEngine("system.cpu0", faults)
	e.OnActivate(0x1000, 0)
	return e
}

func TestActivateToggle(t *testing.T) {
	e := NewEngine("cpu", nil)
	if e.Enabled() {
		t.Fatal("enabled before activation")
	}
	e.OnActivate(0x1000, 7)
	if !e.Enabled() || e.ThreadsActive() != 1 {
		t.Fatal("activation failed")
	}
	e.OnActivate(0x1000, 7) // toggle off
	if e.Enabled() || e.ThreadsActive() != 0 {
		t.Fatal("deactivation failed")
	}
}

func TestContextSwitchTracking(t *testing.T) {
	e := NewEngine("cpu", nil)
	e.OnActivate(0x1000, 0)
	e.OnContextSwitch(0x2000) // switched-in thread has FI off
	if e.Enabled() {
		t.Error("engine enabled for non-FI thread")
	}
	e.OnContextSwitch(0x1000)
	if !e.Enabled() {
		t.Error("engine did not re-enable for FI thread")
	}
}

// TestFastPathQuiescence walks one register fault through the fast-path
// contract: a budget that counts down to the trigger while it is armed,
// quiescent with the register watched once it fires, the watch cleared
// by the first write, and a closed window always fast with nothing
// watched. Retire advances the open window's counters and the tick clock
// like the hooks would. A far fault is admitted far from its trigger and
// refused within the pipelined model's slack.
func TestFastPathQuiescence(t *testing.T) {
	e := engineWith(Fault{Loc: LocIntReg, Reg: 5, Behavior: BehFlip, Bit: 0, Base: TimeInst, When: 2, Occ: 1})
	if b, _, _ := e.FastPath(); b != 1 {
		t.Fatalf("armed at commit 2: budget %d, want 1 (commit 1 is safe)", b)
	}
	var a cpu.Arch
	e.OnCommit(1, 0, &a)
	if b, _, _ := e.FastPath(); b != 0 {
		t.Fatalf("fault due on the next commit: budget %d, want 0", b)
	}
	e.OnCommit(2, 0, &a) // fires: r5 tainted
	if b, wi, wf := e.FastPath(); b != math.MaxUint64 || wi != 1<<5 || wf != 0 || e.Quiesced != 1 {
		t.Fatalf("after firing: FastPath = %d, %#x, %#x, quiesced %d", b, wi, wf, e.Quiesced)
	}
	e.Retire(6, 5, 4, 3, 99)
	if ws := e.CaptureWindow(); ws.TicksNow != 99 || ws.Threads[0x1000].Commits != 5 ||
		ws.Threads[0x1000].Execs != 4 || ws.Threads[0x1000].Decodes != 5 || ws.Threads[0x1000].Fetches != 6 {
		t.Errorf("Retire: window state %+v", ws)
	}
	e.OnRegWrite(false, 5)
	if b, wi, _ := e.FastPath(); b != math.MaxUint64 || wi != 0 {
		t.Errorf("after the overwrite: FastPath = %d, %#x", b, wi)
	}
	if oc := e.Outcomes()[0]; oc.Propagated || !oc.Overwritten {
		t.Errorf("outcome %+v, want overwritten", oc)
	}
	e.Reset(e.Faults())
	if b, _, _ := e.FastPath(); b != math.MaxUint64 {
		t.Error("closed window after Reset is not fast")
	}
	e.OnActivate(0x1000, 0)
	if b, _, _ := e.FastPath(); b != 1 {
		t.Errorf("Reset did not re-arm the fault: budget %d", b)
	}

	// Far faults: the budget counts down per stage (a fetch fault by
	// fetches, a register fault by commits) and stays zero from the first
	// firing on, even with another fault still far ahead. Another
	// thread's faults do not bound it; a tick-timed fault zeroes it.
	budget := func(e *Engine) uint64 {
		b, wi, wf := e.FastPath()
		if wi|wf != 0 {
			t.Errorf("watch masks %#x/%#x with nothing fired", wi, wf)
		}
		return b
	}
	e = engineWith(
		Fault{Loc: LocFetch, Behavior: BehFlip, Bit: 0, Base: TimeInst, When: 1000, Occ: 1},
		Fault{Loc: LocIntReg, Reg: 5, Behavior: BehFlip, Bit: 0, Base: TimeInst, When: 500, Occ: 1},
		Fault{Loc: LocExec, Behavior: BehFlip, Bit: 0, Base: TimeInst, When: 3, Occ: 1, ThreadID: 1},
	)
	if b := budget(e); b != 499 {
		t.Fatalf("far from both triggers: budget %d, want 499", b)
	}
	// Wrong-path fetches outrun commits: the fetch fault now bounds it.
	e.Retire(990, 480, 480, 470, 5)
	if b := budget(e); b != 9 {
		t.Errorf("fetches 990, commits 470: budget %d, want 9", b)
	}
	e.Retire(4, 0, 0, 0, 6)
	if b := budget(e); b >= cpu.PipeSlack {
		t.Errorf("fetches 994: budget %d, not refused within the slack", b)
	}
	// Thread 1's fault does not bound thread 0, and a thread with no
	// fault of its own runs unbounded.
	e.OnActivate(0x2000, 2)
	if b := budget(e); b != math.MaxUint64-1 {
		t.Errorf("thread without faults: budget %d", b)
	}
	e.OnContextSwitch(0x1000)
	e.Retire(5, 0, 0, 0, 7)
	if b := budget(e); b != 0 {
		t.Errorf("fetch fault due next: budget %d, want 0", b)
	}
	if w := e.OnFetch(1, 0, 0); w != 1 {
		t.Fatalf("fetch fault did not fire at fetch 1000: word %#x", w)
	}
	e.OnSquash(1)
	if b := budget(e); b != 0 {
		t.Errorf("after a firing, with the register fault still 30 commits away: budget %d, want 0", b)
	}
	// A thread switch recomputes the horizon without the spent fetch
	// fault; the firing still holds the budget at 0.
	e.OnContextSwitch(0x2000)
	e.OnContextSwitch(0x1000)
	if b := budget(e); b != 0 {
		t.Errorf("after a firing and a thread switch: budget %d, want 0", b)
	}

	tick := engineWith(Fault{Loc: LocIntReg, Behavior: BehFlip, Base: TimeTick, When: 1 << 40, Occ: 1})
	if b := budget(tick); b != 0 {
		t.Errorf("tick-timed fault armed: budget %d, want 0", b)
	}
}

func TestFetchFaultFiresAtExactInstruction(t *testing.T) {
	e := engineWith(Fault{Loc: LocFetch, Behavior: BehFlip, Bit: 0, Base: TimeInst, When: 3, Occ: 1})
	w := uint32(isa.MakeOperate(isa.OpIntArith, isa.FnADDQ, 1, 2, 3))
	if got := e.OnFetch(1, 0, w); got != w {
		t.Error("fired at fetch 1")
	}
	if got := e.OnFetch(2, 0, w); got != w {
		t.Error("fired at fetch 2")
	}
	if got := e.OnFetch(3, 0, w); got != w^1 {
		t.Errorf("did not fire at fetch 3: %x", got)
	}
	if got := e.OnFetch(4, 0, w); got != w {
		t.Error("transient fault fired twice")
	}
	oc := e.Outcomes()[0]
	if !oc.Fired || oc.FiredCount != 3 {
		t.Errorf("outcome %+v", oc)
	}
	if !strings.Contains(oc.Detail, "fetch") {
		t.Errorf("missing detail: %q", oc.Detail)
	}
}

func TestIntermittentFaultFiresNTimes(t *testing.T) {
	e := engineWith(Fault{Loc: LocFetch, Behavior: BehFlip, Bit: 0, Base: TimeInst, When: 2, Occ: 3})
	w := uint32(0)
	fired := 0
	for i := uint64(1); i <= 10; i++ {
		if e.OnFetch(i, 0, w) != w {
			fired++
		}
	}
	if fired != 3 {
		t.Errorf("intermittent occ:3 fired %d times", fired)
	}
}

func TestPermanentFaultAlwaysFires(t *testing.T) {
	e := engineWith(Fault{Loc: LocFetch, Behavior: BehFlip, Bit: 0, Base: TimeInst, When: 5, Occ: PermanentOcc})
	fired := 0
	for i := uint64(1); i <= 20; i++ {
		if e.OnFetch(i, 0, 0) != 0 {
			fired++
		}
	}
	if fired != 16 {
		t.Errorf("permanent fault fired %d of 16 post-trigger fetches", fired)
	}
	if e.Resolved() {
		t.Error("permanent faults must never resolve")
	}
}

func TestRegisterFaultAppliedAtCommit(t *testing.T) {
	e := engineWith(Fault{Loc: LocIntReg, Reg: 4, Behavior: BehSet, Value: 99, Base: TimeInst, When: 2, Occ: 1})
	var a cpu.Arch
	e.OnCommit(1, 0, &a)
	if a.R[4] != 0 {
		t.Error("fired early")
	}
	e.OnCommit(2, 0, &a)
	if a.R[4] != 99 {
		t.Errorf("register not corrupted: %d", a.R[4])
	}
}

func TestPCFaultReportsRedirect(t *testing.T) {
	e := engineWith(Fault{Loc: LocPC, Behavior: BehFlip, Bit: 8, Base: TimeInst, When: 1, Occ: 1})
	a := cpu.Arch{PC: 0x1000}
	if !e.OnCommit(1, 0, &a) {
		t.Error("PC fault must report a redirect")
	}
	if a.PC != 0x1100 {
		t.Errorf("PC = %#x", a.PC)
	}
}

func TestSpecialRegFaultHitsPCBB(t *testing.T) {
	e := engineWith(Fault{Loc: LocSpecialReg, Reg: 0, Behavior: BehFlip, Bit: 4, Base: TimeInst, When: 1, Occ: 1})
	a := cpu.Arch{PCBB: 0xF00000}
	e.OnCommit(1, 0, &a)
	if a.PCBB != 0xF00010 {
		t.Errorf("PCBB = %#x", a.PCBB)
	}
}

func TestTaintPropagationRead(t *testing.T) {
	e := engineWith(Fault{Loc: LocIntReg, Reg: 4, Behavior: BehFlip, Bit: 1, Base: TimeInst, When: 1, Occ: 1})
	var a cpu.Arch
	e.OnCommit(1, 0, &a)
	e.OnRegRead(false, 4)
	oc := e.Outcomes()[0]
	if !oc.Propagated {
		t.Error("read of tainted register must propagate")
	}
}

func TestTaintOverwriteBeforeRead(t *testing.T) {
	e := engineWith(Fault{Loc: LocIntReg, Reg: 4, Behavior: BehFlip, Bit: 1, Base: TimeInst, When: 1, Occ: 1})
	var a cpu.Arch
	e.OnCommit(1, 0, &a)
	e.OnRegWrite(false, 4)
	e.OnRegRead(false, 4) // read AFTER overwrite: clean value
	oc := e.Outcomes()[0]
	if oc.Propagated || !oc.Overwritten {
		t.Errorf("outcome %+v, want overwritten & not propagated", oc)
	}
}

func TestFPRegisterTaintSeparateFile(t *testing.T) {
	e := engineWith(Fault{Loc: LocFloatReg, Reg: 4, Behavior: BehFlip, Bit: 52, Base: TimeInst, When: 1, Occ: 1})
	var a cpu.Arch
	e.OnCommit(1, 0, &a)
	e.OnRegRead(false, 4) // INT register 4: must not clear FP taint
	if e.Outcomes()[0].Propagated {
		t.Error("int read cleared fp taint")
	}
	e.OnRegRead(true, 4)
	if !e.Outcomes()[0].Propagated {
		t.Error("fp read did not propagate")
	}
}

func TestSquashMakesFaultNonPropagated(t *testing.T) {
	e := engineWith(Fault{Loc: LocExec, Behavior: BehFlip, Bit: 0, Base: TimeInst, When: 1, Occ: 1})
	in := isa.Decode(isa.MakeOperate(isa.OpIntArith, isa.FnADDQ, 1, 2, 3))
	var out cpu.ExecOut
	e.OnExecute(42, 0, in, &out)
	if !e.Outcomes()[0].Fired {
		t.Fatal("did not fire")
	}
	e.OnSquash(42)
	oc := e.Outcomes()[0]
	if oc.Propagated || !oc.Squashed {
		t.Errorf("squashed fault: %+v", oc)
	}
	if !e.Resolved() {
		t.Error("squashed transient fault must be resolved")
	}
}

func TestExecFaultTargetsByInstructionClass(t *testing.T) {
	mk := func() *Engine {
		return engineWith(Fault{Loc: LocExec, Behavior: BehFlip, Bit: 3, Base: TimeInst, When: 1, Occ: 1})
	}
	// Memory instruction: corrupts the effective address.
	ldq, _ := isa.MakeMem(isa.OpLDQ, 1, 2, 0)
	out := cpu.ExecOut{EA: 0x100}
	mk().OnExecute(1, 0, isa.Decode(ldq), &out)
	if out.EA != 0x108 {
		t.Errorf("EA = %#x", out.EA)
	}
	// Branch: corrupts the target.
	br, _ := isa.MakeBranch(isa.OpBEQ, 1, 4)
	out = cpu.ExecOut{Target: 0x100}
	mk().OnExecute(1, 0, isa.Decode(br), &out)
	if out.Target != 0x108 {
		t.Errorf("target = %#x", out.Target)
	}
	// ALU: corrupts the integer result.
	add := isa.MakeOperate(isa.OpIntArith, isa.FnADDQ, 1, 2, 3)
	out = cpu.ExecOut{IntRes: 16}
	mk().OnExecute(1, 0, isa.Decode(add), &out)
	if out.IntRes != 24 {
		t.Errorf("int result = %d", out.IntRes)
	}
}

func TestDecodeFaultCorruptsSelectedOperand(t *testing.T) {
	for sel := 0; sel < 3; sel++ {
		e := engineWith(Fault{Loc: LocDecode, Reg: sel, Behavior: BehFlip, Bit: 0, Base: TimeInst, When: 1, Occ: 1})
		ports := isa.RegPorts{SrcA: 2, SrcB: 4, Dst: 6, SrcAUsed: true, SrcBUsed: true, DstUsed: true}
		got := e.OnDecode(1, 0, ports)
		switch sel {
		case 0:
			if got.SrcA != 3 || got.SrcB != 4 || got.Dst != 6 {
				t.Errorf("sel 0: %+v", got)
			}
		case 1:
			if got.SrcB != 5 || got.SrcA != 2 {
				t.Errorf("sel 1: %+v", got)
			}
		case 2:
			if got.Dst != 7 {
				t.Errorf("sel 2: %+v", got)
			}
		}
	}
}

func TestMemFaultCorruptsValue(t *testing.T) {
	e := engineWith(Fault{Loc: LocMem, Behavior: BehXor, Value: 0xFF, Base: TimeInst, When: 1, Occ: 1})
	// Memory faults time against the executed-instruction counter (the
	// paper's "number of instructions already executed"), so the memory
	// access follows its own execute stage.
	ldq, _ := isa.MakeMem(isa.OpLDQ, 1, 2, 0)
	var out cpu.ExecOut
	e.OnExecute(1, 0, isa.Decode(ldq), &out)
	if got := e.OnMem(1, 0, true, 0x100, 0xAB00, true); got != 0xABFF {
		t.Errorf("load value = %#x", got)
	}
}

// TestMemFaultWaitsForNextMemOp: a memory fault scheduled between memory
// operations fires at the first load/store at-or-after its instruction.
func TestMemFaultWaitsForNextMemOp(t *testing.T) {
	e := engineWith(Fault{Loc: LocMem, Behavior: BehFlip, Bit: 0, Base: TimeInst, When: 5, Occ: 1})
	add := isa.Decode(isa.MakeOperate(isa.OpIntArith, isa.FnADDQ, 1, 2, 3))
	ldq, _ := isa.MakeMem(isa.OpLDQ, 1, 2, 0)
	ld := isa.Decode(ldq)
	var out cpu.ExecOut
	// Instructions 1..2: one ALU op and one load (before the trigger).
	e.OnExecute(1, 0, add, &out)
	e.OnExecute(2, 0, ld, &out)
	if e.OnMem(2, 0, true, 0, 0, true) != 0 {
		t.Fatal("fired before its instruction")
	}
	// Instructions 3..7: ALU ops straddling the trigger point, then the
	// first post-trigger load at instruction 8 takes the hit.
	for seq := uint64(3); seq <= 7; seq++ {
		e.OnExecute(seq, 0, add, &out)
	}
	e.OnExecute(8, 0, ld, &out)
	if e.OnMem(8, 0, true, 0, 0, true) == 0 {
		t.Fatal("did not fire at the first post-trigger memory op")
	}
}

func TestTickBasedTiming(t *testing.T) {
	e := NewEngine("cpu", []Fault{
		{Loc: LocFetch, Behavior: BehFlip, Bit: 0, Base: TimeTick, When: 100, Occ: 1},
	})
	e.OnTick(500) // activation happens at tick 500
	e.OnActivate(0x1000, 0)
	e.OnTick(550)
	if e.OnFetch(1, 0, 0) != 0 { // tick offset 50 < 100
		t.Error("fired before tick offset reached")
	}
	e.OnTick(610)
	if e.OnFetch(2, 0, 0) == 0 { // tick offset 110 >= 100
		t.Error("did not fire after tick offset")
	}
}

func TestThreadFiltering(t *testing.T) {
	e := NewEngine("cpu", []Fault{
		{Loc: LocFetch, Behavior: BehFlip, Bit: 0, ThreadID: 1, Base: TimeInst, When: 1, Occ: 1},
	})
	e.OnActivate(0x1000, 0) // thread id 0, fault targets id 1
	if e.OnFetch(1, 0, 0) != 0 {
		t.Error("fault fired for wrong thread")
	}
	e.OnActivate(0x2000, 1)
	if e.OnFetch(2, 0, 0) == 0 {
		t.Error("fault did not fire for its thread")
	}
}

func TestCPUNameFiltering(t *testing.T) {
	f := Fault{Loc: LocFetch, Behavior: BehFlip, Bit: 0, CPU: "system.cpu1", Base: TimeInst, When: 1, Occ: 1}
	other := NewEngine("system.cpu0", []Fault{f})
	other.OnActivate(0x1000, 0)
	if other.OnFetch(1, 0, 0) != 0 {
		t.Error("fault armed on wrong CPU")
	}
	right := NewEngine("system.cpu1", []Fault{f})
	right.OnActivate(0x1000, 0)
	if right.OnFetch(1, 0, 0) == 0 {
		t.Error("fault did not arm on its CPU")
	}
}

// TestResetRearms is the fi_read_init_all contract: after Reset the
// engine state is as freshly parsed.
func TestResetRearms(t *testing.T) {
	f := Fault{Loc: LocFetch, Behavior: BehFlip, Bit: 0, Base: TimeInst, When: 1, Occ: 1}
	e := engineWith(f)
	e.OnFetch(1, 0, 0)
	if !e.AnyFired() {
		t.Fatal("setup: fault should have fired")
	}
	e.Reset([]Fault{f})
	if e.AnyFired() || e.Enabled() || e.ThreadsActive() != 0 {
		t.Error("reset did not clear engine state")
	}
	e.OnActivate(0x1000, 0)
	if e.OnFetch(1, 0, 0) == 0 {
		t.Error("re-armed fault did not fire")
	}
}

// TestResetClearsWindowCommits: a restored run counts only its own
// fault-injection windows, not the closed windows of the run before.
func TestResetClearsWindowCommits(t *testing.T) {
	e := NewEngine("cpu", nil)
	for range 2 {
		e.OnActivate(0x1000, 0)
		for seq := uint64(1); seq <= 5; seq++ {
			e.OnCommit(seq, 0, nil)
		}
		e.OnActivate(0x1000, 0)
		if got := e.WindowCommits(); got != 5 {
			t.Fatalf("WindowCommits = %d, want 5", got)
		}
		e.Reset(nil)
	}
}

func TestHooksAreNoOpsWhenDisabled(t *testing.T) {
	e := NewEngine("cpu", []Fault{
		{Loc: LocFetch, Behavior: BehAllOne, Base: TimeInst, When: 1, Occ: 1},
	})
	// Never activated: every hook must be identity.
	if e.OnFetch(1, 0, 0x1234) != 0x1234 {
		t.Error("fetch hook mutated while disabled")
	}
	if e.OnMem(1, 0, true, 0, 42, true) != 42 {
		t.Error("mem hook mutated while disabled")
	}
	var a cpu.Arch
	if e.OnCommit(1, 0, &a) {
		t.Error("commit hook redirected while disabled")
	}
}
