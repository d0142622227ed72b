// Micro-benchmarks for the parts of the paper's evaluation that neither
// the benchmark ledger (go run ./benchmark) nor a gemfi-campaign
// -experiment driver measures:
//
//	BenchmarkTableIInstructionFormats  - Table I (ISA decode throughput per format)
//	BenchmarkFig2FIPerInstruction      - Fig. 2  (the per-instruction FI fast path)
//	BenchmarkFig4OutcomeClasses        - Fig. 4  (DCT outcome categories)
//
// Figs. 5-8 come from gemfi-campaign -experiment fig5 ... fig8.
//
// Run with: go test -run '^$' -bench . -benchtime 1x .
package gemfi

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// BenchmarkTableIInstructionFormats measures decode across the four
// Table I instruction formats (and prints the format table once).
func BenchmarkTableIInstructionFormats(b *testing.B) {
	type row struct {
		name string
		word isa.Word
	}
	mem, _ := isa.MakeMem(isa.OpLDQ, 1, 30, 16)
	br, _ := isa.MakeBranch(isa.OpBNE, 5, -12)
	rows := []row{
		{"Memory", mem},
		{"Branch", br},
		{"Operate", isa.MakeOperate(isa.OpIntArith, isa.FnADDQ, 1, 2, 3)},
		{"OperateLit", isa.MakeOperateLit(isa.OpIntShift, isa.FnSLL, 1, 7, 3)},
		{"FPOperate", isa.MakeFP(isa.FnMULT, 1, 2, 3)},
		{"PALcode", isa.MakePal(isa.PalCallSys)},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if isa.Decode(r.word).Kind == isa.KindIllegal {
					b.Fatal("row decodes illegal")
				}
			}
		})
	}
}

// fig2Program is a pure compute loop used for the per-instruction
// overhead microbenchmarks.
const fig2Iterations = 2000

func fig2Sim(b *testing.B, enableFI, activate bool) *sim.Simulator {
	b.Helper()
	activateStmt := ""
	if activate {
		activateStmt = "fi_activate(0);"
	}
	src := fmt.Sprintf(`
int main() {
    %s
    int s = 0;
    for (int i = 0; i < %d; i = i + 1) { s = s + i * 3; }
    %s
    if (s < 0) { return 1; }
    return 0;
}`, activateStmt, fig2Iterations, activateStmt)
	p, err := CompileC(src)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSimulator(SimConfig{Model: ModelAtomic, EnableFI: enableFI, MaxInsts: 100_000_000})
	if err := s.Load(p); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFig2FIPerInstruction measures the engine's per-instruction
// fast path (Fig. 2): vanilla (engine absent), FI idle (engine attached,
// thread not activated) and FI active (thread activated, no faults).
func BenchmarkFig2FIPerInstruction(b *testing.B) {
	cases := []struct {
		name               string
		enableFI, activate bool
	}{
		{"Vanilla", false, false},
		{"FIIdle", true, false},
		{"FIActive", true, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := fig2Sim(b, tc.enableFI, tc.activate)
				b.StartTimer()
				if r := s.Run(); r.Failed() {
					b.Fatalf("%+v", r)
				}
			}
		})
	}
}

// BenchmarkFig4OutcomeClasses exercises the DCT evaluator on the three
// result categories the paper's Fig. 4 illustrates: strict, relaxed
// (lossy but acceptable) and SDC.
func BenchmarkFig4OutcomeClasses(b *testing.B) {
	w := workloads.DCT(workloads.ScaleTest)
	golden, _, err := workloads.Golden(w)
	if err != nil {
		b.Fatal(err)
	}
	relaxed := cloneResult(golden)
	relaxed.Data["out"][0] ^= 1
	sdc := cloneResult(golden)
	for i := range sdc.Data["out"] {
		sdc.Data["out"][i] = 0
	}
	cases := []struct {
		name string
		run  *workloads.Result
		want workloads.Grade
	}{
		{"Strict", golden, workloads.GradeStrict},
		{"Relaxed", relaxed, workloads.GradeCorrect},
		{"SDC", sdc, workloads.GradeSDC},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := w.Classify(golden, tc.run); got != tc.want {
					b.Fatalf("grade %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// BenchmarkCowSnapshotOverhead measures the heap uniquely attributable to
// one trunk snapshot as a function of dirty rate: the trunk rewrites a
// fraction of a 256-page working set between freezes, so each freeze
// should cost the dirtied pages (reported as bytes/snapshot), never the
// full image.
func BenchmarkCowSnapshotOverhead(b *testing.B) {
	const pages = 256
	for _, pct := range []int{1, 10, 50, 100} {
		b.Run(fmt.Sprintf("dirty=%d", pct), func(b *testing.B) {
			m := mem.New()
			m.Map(0, pages*mem.PageSize)
			for i := 0; i < pages; i++ {
				if err := m.Write64(uint64(i)*mem.PageSize, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			m.CowSnapshot() // baseline freeze: everything clean after this
			dirty := pages * pct / 100
			if dirty == 0 {
				dirty = 1
			}
			var bytes uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := 0; p < dirty; p++ {
					if err := m.Write64(uint64(p)*mem.PageSize+16, uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
				bytes += m.CowSnapshot().ApproxBytes()
			}
			b.StopTimer()
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/snapshot")
		})
	}
}

// BenchmarkFaultParse measures the Listing-1 input file parser.
func BenchmarkFaultParse(b *testing.B) {
	line := "RegisterInjectedFault Inst:2457 Flip:21 Threadid:0 system.cpu1 occ:1 int 1"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ParseFault(line); err != nil {
			b.Fatal(err)
		}
	}
}

func cloneResult(r *workloads.Result) *workloads.Result {
	out := &workloads.Result{ExitStatus: r.ExitStatus, Data: make(map[string][]uint64, len(r.Data))}
	for k, v := range r.Data {
		out.Data[k] = append([]uint64(nil), v...)
	}
	return out
}
