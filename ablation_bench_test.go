// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - the PCB-pointer cache that replaces per-instruction hash lookups
//     (the optimization Section III.C describes);
//   - the tournament branch predictor (vs. never-taken fetch);
//   - the decode-stage port computation.
package gemfi

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// BenchmarkAblationThreadLookup compares the engine's cached-pointer fast
// path with the hash lookup it replaces ("monitoring context switches
// allows GemFI to eliminate the overhead of checking ... in the hash
// table on each simulated clock tick").
func BenchmarkAblationThreadLookup(b *testing.B) {
	e := core.NewEngine("cpu", nil)
	// Populate several FI-enabled threads, as a loaded system would.
	for i := 0; i < 8; i++ {
		e.OnActivate(uint64(0xF00000+i*0x400), i)
	}
	pcb := uint64(0xF00000)
	e.OnContextSwitch(pcb)

	b.Run("CachedPointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The per-instruction check as implemented: one nil test.
			if !e.Enabled() {
				b.Fatal("disabled")
			}
		}
	})
	b.Run("HashLookupPerTick", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The naive alternative: resolve the PCB through the map on
			// every instruction.
			e.OnContextSwitch(pcb)
			if !e.Enabled() {
				b.Fatal("disabled")
			}
		}
	})
}

// BenchmarkAblationBranchPredictor measures the pipelined model's cycle
// count on a branchy workload with the tournament predictor versus a
// disabled predictor (always fall-through).
func BenchmarkAblationBranchPredictor(b *testing.B) {
	w := workloads.MonteCarloPI(workloads.ScaleTest)
	p, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, disable bool) (ticks, mispredicts uint64) {
		s := newPipelinedSim(b, p)
		mdl, ok := s.Model.(*cpu.PipelinedModel)
		if !ok {
			b.Fatal("not pipelined")
		}
		mdl.Pred.Disabled = disable
		for mdl.Step() {
		}
		if s.Core.Trap != nil {
			b.Fatal(s.Core.Trap)
		}
		return s.Core.Ticks, mdl.Pred.Mispredicts
	}
	b.Run("Tournament", func(b *testing.B) {
		var ticks, miss uint64
		for i := 0; i < b.N; i++ {
			ticks, miss = run(b, false)
		}
		b.ReportMetric(float64(ticks), "cycles/run")
		b.ReportMetric(float64(miss), "mispredicts/run")
	})
	b.Run("Disabled", func(b *testing.B) {
		var ticks, miss uint64
		for i := 0; i < b.N; i++ {
			ticks, miss = run(b, true)
		}
		b.ReportMetric(float64(ticks), "cycles/run")
		b.ReportMetric(float64(miss), "mispredicts/run")
	})
}

// BenchmarkAblationDecodePorts isolates the per-instruction port
// computation the decode-stage faults corrupt.
func BenchmarkAblationDecodePorts(b *testing.B) {
	words := []isa.Word{
		isa.MakeOperate(isa.OpIntArith, isa.FnADDQ, 1, 2, 3),
		isa.MakeFP(isa.FnMULT, 1, 2, 3),
	}
	w, _ := isa.MakeMem(isa.OpSTQ, 1, 30, 8)
	words = append(words, w)
	insts := make([]isa.Inst, len(words))
	for i, wd := range words {
		insts[i] = isa.Decode(wd)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = insts[i%len(insts)].Ports()
	}
}

// newPipelinedSim builds a pipelined simulator for ablations.
func newPipelinedSim(b *testing.B, p *Program) *Simulator {
	b.Helper()
	s := NewSimulator(SimConfig{Model: ModelPipelined, EnableFI: true, MaxInsts: 2_000_000_000})
	if err := s.Load(p); err != nil {
		b.Fatal(err)
	}
	return s
}
