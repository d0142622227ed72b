package prof

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
)

func TestProfilerDenseAndSparse(t *testing.T) {
	p := New(0x1000, 2) // dense window covers 0x1000 and 0x1004
	p.OnCommit(&cpu.Commit{PC: 0x1000, Ticks: 1})
	p.OnCommit(&cpu.Commit{PC: 0x1004, Ticks: 3})
	p.OnCommit(&cpu.Commit{PC: 0x2000, Ticks: 10}) // outside the window: sparse overflow
	p.OnEvent(cpu.EventIMiss, 0x1000)
	p.OnEvent(cpu.EventDMiss, 0x1004)
	p.OnEvent(cpu.EventMispredict, 0x2000)
	for i := 0; i < 5; i++ {
		p.OnEvent(cpu.EventStallMem, 0x1000)
	}
	p.OnEvent(cpu.Event(99), 0x1000) // out of range clamps to drain

	snap := p.Snapshot()
	if snap.TotalInsts != 3 {
		t.Errorf("TotalInsts = %d, want 3", snap.TotalInsts)
	}
	// Commit-to-commit deltas: 1, 2, 7 — cycles sum to the final tick.
	if snap.TotalCycles != 10 {
		t.Errorf("TotalCycles = %d, want 10", snap.TotalCycles)
	}
	byPC := map[uint64]PCStat{}
	for _, st := range snap.PCs {
		byPC[st.PC] = st
	}
	if st := byPC[0x1000]; st.Insts != 1 || st.Cycles != 1 || st.IMisses != 1 ||
		st.Stalls[StallMem] != 5 || st.Stalls[StallDrain] != 1 {
		t.Errorf("0x1000 = %+v", st)
	}
	if st := byPC[0x1004]; st.Insts != 1 || st.Cycles != 2 || st.DMisses != 1 {
		t.Errorf("0x1004 = %+v", st)
	}
	if st := byPC[0x2000]; st.Insts != 1 || st.Cycles != 7 || st.Mispredict != 1 {
		t.Errorf("0x2000 (sparse) = %+v", st)
	}
}

func TestProfilerTickRewind(t *testing.T) {
	p := New(0x1000, 4)
	p.OnCommit(&cpu.Commit{PC: 0x1000, Ticks: 100})
	p.OnCommit(&cpu.Commit{PC: 0x1004, Ticks: 5}) // checkpoint restore rewound the clock
	p.OnCommit(&cpu.Commit{PC: 0x1008, Ticks: 8})
	snap := p.Snapshot()
	// 100 + 0 (rewind resets the baseline) + 3.
	if snap.TotalCycles != 103 {
		t.Errorf("TotalCycles = %d, want 103", snap.TotalCycles)
	}
}

func TestMergeProfiles(t *testing.T) {
	mk := func() *Profiler {
		p := New(0x1000, 2)
		p.OnCommit(&cpu.Commit{PC: 0x1000, Ticks: 2})
		p.OnCommit(&cpu.Commit{PC: 0x1004, Ticks: 4})
		return p
	}
	a, b := mk().Snapshot(), mk().Snapshot()
	m := MergeProfiles(a, b, nil)
	if m.TotalInsts != 4 || m.TotalCycles != 8 {
		t.Errorf("merged totals = %d insts / %d cycles", m.TotalInsts, m.TotalCycles)
	}
	if len(m.PCs) != 2 || m.PCs[0].Insts != 2 || m.PCs[1].Cycles != 4 {
		t.Errorf("merged PCs = %+v", m.PCs)
	}
}

func TestStackTreeFolded(t *testing.T) {
	syms := asm.SymbolTable{
		{Name: "_start", Addr: 0x1000, Size: 0x10},
		{Name: "fn_a", Addr: 0x1010, Size: 0x10},
		{Name: "fn_b", Addr: 0x1020, Size: 0x10},
	}
	p := New(0x1000, 12)
	p.SetSymbols(syms)

	p.OnStackSample(0x1000) // root frame
	p.OnCall(0x1010)
	p.OnStackSample(0x1010)
	p.OnStackSample(0x1014)
	p.OnCall(0x1020)
	p.OnStackSample(0x1020)
	p.OnReturn()
	p.OnStackSample(0x1018)
	p.OnReturn()
	p.OnReturn() // extra pop pins at root, must not panic

	var buf bytes.Buffer
	if err := p.Snapshot().WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	// Execution begins in _start without a call, so its samples land on
	// a transient root-level leaf; called frames chain from the root.
	out := buf.String()
	for _, want := range []string{
		"_start 1\n",
		"fn_a 3\n",
		"fn_a;fn_b 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("folded output missing %q:\n%s", want, out)
		}
	}
}

func TestStackTreeDepthBound(t *testing.T) {
	p := New(0x1000, 4)
	for i := 0; i < maxStackDepth+50; i++ {
		p.OnCall(0x1000)
	}
	p.OnStackSample(0x1000) // must not blow up past the bound
	for i := 0; i < maxStackDepth+50; i++ {
		p.OnReturn()
	}
	p.ResetStack()
	p.OnStackSample(0x1000)
	if len(p.Snapshot().Folded) == 0 {
		t.Error("no folded samples after reset")
	}
}
