package core

import (
	"math"
	"testing"

	"repro/internal/cpu"
)

// TestStepsUntilDue walks the look-ahead through a window: it must bound
// the steps before a fault could act from the fresh-window case, track
// the named thread's stage counter, report the bounding fault's position
// in Faults(), and forget a fault once it has fired.
func TestStepsUntilDue(t *testing.T) {
	e := NewEngine("cpu0", []Fault{
		{Loc: LocFetch, Behavior: BehFlip, Base: TimeInst, When: 10, Occ: 1},
		{Loc: LocIntReg, Reg: 3, Behavior: BehFlip, Base: TimeInst, When: 5, Occ: 1},
		{Loc: LocIntReg, Reg: 4, Behavior: BehFlip, Base: TimeInst, When: 2, Occ: 1, ThreadID: 7},
	})
	check := func(label string, wantN uint64, wantSrc int) {
		t.Helper()
		if n, src := e.StepsUntilDue(); n != wantN || src != wantSrc {
			t.Errorf("%s: StepsUntilDue = (%d, %d), want (%d, %d)", label, n, src, wantN, wantSrc)
		}
	}
	// Closed window: a window opening on the next step starts at zero, so
	// thread 7's fault at 2 could act on the second step.
	check("closed", 1, 2)
	e.OnActivate(0x100, 0)
	// Thread 7 is not open, thread 0's register fault at 5 counts from 0.
	check("open", 1, 2)

	var a cpu.Arch
	for i := uint64(1); i <= 3; i++ {
		e.OnCommit(i, 4*i, &a)
	}
	// Commits = 3: the fault at 5 acts once the counter reaches 5, two
	// steps away, so one step is safe. It ties with thread 7's bound and,
	// listed first, names the bound.
	check("commits=3", 1, 1)

	e2 := NewEngine("cpu0", []Fault{
		{Loc: LocIntReg, Reg: 3, Behavior: BehFlip, Base: TimeInst, When: 5, Occ: 1},
	})
	e2.OnActivate(0x100, 0)
	for commits := uint64(0); commits < 4; commits++ {
		// The counter reaches 5 after 5-commits steps; all before are safe.
		if n, _ := e2.StepsUntilDue(); n != 4-commits {
			t.Errorf("commits=%d: StepsUntilDue = %d, want %d", commits, n, 4-commits)
		}
		// One open thread: the fast path's budget is the same look-ahead.
		if b, _, _ := e2.FastPath(); b != 4-commits {
			t.Errorf("commits=%d: FastPath budget = %d, want %d", commits, b, 4-commits)
		}
		e2.OnCommit(commits+1, 4*commits, &a)
	}
	if n, src := e2.StepsUntilDue(); n != 0 || src != 0 {
		t.Errorf("due: StepsUntilDue = (%d, %d), want (0, 0)", n, src)
	}
	e2.OnCommit(5, 20, &a) // fires
	if n, src := e2.StepsUntilDue(); n != math.MaxUint64 || src != -1 {
		t.Errorf("fired: StepsUntilDue = (%d, %d), want (max, -1)", n, src)
	}

	tick := NewEngine("cpu0", []Fault{{Loc: LocIntReg, Behavior: BehFlip, Base: TimeTick, When: 1 << 40, Occ: 1}})
	if n, _ := tick.StepsUntilDue(); n != 0 {
		t.Errorf("tick-timed fault: StepsUntilDue = %d, want 0 (always due)", n)
	}
}
