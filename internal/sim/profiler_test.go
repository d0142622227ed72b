package sim

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// profLoopProgram is a handcrafted loop with a known trip count: the
// three body instructions at `loop` must each retire exactly profTrips
// times, on every CPU model.
const profTrips = 37

const profLoopProgram = `
_start:
    li   t0, 37
    li   t1, 0
loop:
    addq t1, #2, t1
    subq t0, #1, t0
    bne  t0, loop
    li   a0, 0
    li   v0, 1
    callsys
`

// TestProfilerExactCounts checks the profiler's per-PC instruction
// counts against an independent tally (a commit-time cpu.TraceFunc) on all
// three CPU models, pins the known loop trip count, and requires the
// cycle attribution to sum to the run's total ticks.
func TestProfilerExactCounts(t *testing.T) {
	var ref map[uint64]uint64 // atomic-model commit counts; models must agree
	for _, model := range []ModelKind{ModelAtomic, ModelTiming, ModelPipelined} {
		p, err := asm.Assemble(profLoopProgram)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Model: model, EnableFI: false, MaxInsts: 1_000_000, EnableProfiler: true})
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
		counts := map[uint64]uint64{}
		s.Core.Observers = append(s.Core.Observers, cpu.TraceFunc(func(pc uint64, in isa.Inst) { counts[pc]++ }))
		r := s.Run()
		if !r.Exited || r.ExitStatus != 0 {
			t.Fatalf("%s: run failed: %+v", model, r)
		}

		snap := s.Profiler().Snapshot()
		got := map[uint64]uint64{}
		var sumInsts, sumCycles uint64
		for _, st := range snap.PCs {
			got[st.PC] = st.Insts
			sumInsts += st.Insts
			sumCycles += st.Cycles
		}

		// Exact agreement with the independent commit tally, PC by PC.
		if len(got) != len(counts) {
			t.Errorf("%s: profiler covers %d PCs, trace saw %d", model, len(got), len(counts))
		}
		for pc, n := range counts {
			if got[pc] != n {
				t.Errorf("%s: pc 0x%x: profiler insts = %d, trace = %d", model, pc, got[pc], n)
			}
		}
		if sumInsts != r.Insts {
			t.Errorf("%s: profiled insts sum = %d, run retired %d", model, sumInsts, r.Insts)
		}
		if sumCycles != r.Ticks {
			t.Errorf("%s: profiled cycles sum = %d, run ticks = %d", model, sumCycles, r.Ticks)
		}

		// The handcrafted loop body retires exactly profTrips times.
		loopAddr, ok := p.SymbolMap["loop"]
		if !ok {
			t.Fatal("no loop symbol")
		}
		for off := uint64(0); off < 12; off += 4 {
			if got[loopAddr+off] != profTrips {
				t.Errorf("%s: loop+0x%x retired %d times, want %d", model, off, got[loopAddr+off], profTrips)
			}
		}

		// Architectural commit counts must agree across models (the
		// lockstep-conformance property, seen through the profiler).
		if ref == nil {
			ref = got
		} else {
			for pc, n := range ref {
				if got[pc] != n {
					t.Errorf("%s: pc 0x%x retired %d times, atomic retired %d", model, pc, got[pc], n)
				}
			}
		}

		// Every retired instruction lands in a named symbol.
		named, total := snap.AttributedInsts()
		if named != total {
			t.Errorf("%s: %d of %d insts attributed to named functions", model, named, total)
		}
	}
}

// TestProfilerSurvivesModelSwitch checks that cycle attribution stays
// consistent through the campaign methodology's pipelined->atomic
// switch path (Drain + new model share one Core and one profiler).
func TestProfilerSwitchModel(t *testing.T) {
	p, err := asm.Assemble(profLoopProgram)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Model: ModelPipelined, EnableFI: false, MaxInsts: 1_000_000, EnableProfiler: true})
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	// Step a few pipeline cycles, switch to atomic mid-run, finish.
	for i := 0; i < 20 && !s.Core.Stopped; i++ {
		s.Model.Step()
	}
	s.SwitchModel(ModelAtomic)
	r := s.Run()
	if !r.Exited || r.ExitStatus != 0 {
		t.Fatalf("run failed: %+v", r)
	}
	snap := s.Profiler().Snapshot()
	var sumInsts, sumCycles uint64
	for _, st := range snap.PCs {
		sumInsts += st.Insts
		sumCycles += st.Cycles
	}
	if sumInsts != r.Insts {
		t.Errorf("profiled insts sum = %d, run retired %d", sumInsts, r.Insts)
	}
	if sumCycles != r.Ticks {
		t.Errorf("profiled cycles sum = %d, run ticks = %d", sumCycles, r.Ticks)
	}
}
