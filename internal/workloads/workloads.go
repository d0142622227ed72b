// Package workloads implements the paper's six validation benchmarks
// (Section IV) as mini-C guest programs, together with per-application
// output evaluators implementing the paper's outcome criteria:
//
//	DCT        JPEG-style 8x8 DCT/quantize/IDCT; correct if PSNR vs the
//	           input image >= 30 dB.
//	Jacobi     iterative solver on a diagonally dominant system; correct
//	           if the solution is bit-exact regardless of iteration count.
//	PI         Monte Carlo estimation; correct if the first two decimal
//	           digits match the fault-free estimate.
//	Knapsack   0/1 knapsack via a genetic algorithm; correct if the
//	           solution is feasible and near the fault-free fitness.
//	Deblock    AVS-style deblocking filter; correct if PSNR vs the
//	           fault-free output >= 80 dB.
//	Canneal    simulated-annealing netlist routing; correct if the final
//	           placement is a valid permutation with reduced cost.
//
// Inputs are synthetic and deterministic (generated by a seeded host-side
// LCG and baked into the guest image as global initializers), standing in
// for the paper's 512x512 image / PARSEC inputs; paper-scale dimensions
// are available through ScalePaper.
package workloads

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/asm"
	"repro/internal/minic"
)

// Scale selects problem sizes.
type Scale int

// Problem scales.
const (
	// ScaleTest is small enough for unit tests (sub-second campaigns).
	ScaleTest Scale = iota + 1
	// ScaleSmall is the benchmark default (seconds per campaign).
	ScaleSmall
	// ScalePaper matches the paper's input dimensions (512x512 DCT,
	// 64x64 Jacobi, 1e5 PI points, 720x240 deblocking, 100 nets).
	ScalePaper
)

// ParseScale maps a scale name (test|small|paper) to its Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "test":
		return ScaleTest, nil
	case "small":
		return ScaleSmall, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("unknown scale %q (test|small|paper)", name)
}

// Grade is the quality classification of a terminating run's output
// relative to the fault-free golden run.
type Grade int

// Output grades (the campaign layer maps these + crash/propagation info
// to the paper's five outcome classes).
const (
	// GradeStrict: bit-wise identical to the golden output.
	GradeStrict Grade = iota + 1
	// GradeCorrect: within the application's acceptable quality margin.
	GradeCorrect
	// GradeSDC: outside the acceptable margin (silent data corruption).
	GradeSDC
)

// String names the grade.
func (g Grade) String() string {
	switch g {
	case GradeStrict:
		return "strictly-correct"
	case GradeCorrect:
		return "correct"
	case GradeSDC:
		return "SDC"
	default:
		return "unknown"
	}
}

// OutputSpec names a guest symbol whose contents are the application's
// result.
type OutputSpec struct {
	Symbol string
	Count  int // number of 64-bit elements
}

// Result is the extracted output of one terminating run.
type Result struct {
	ExitStatus int
	Data       map[string][]uint64
}

// Workload is one benchmark: its guest source, how to read its outputs,
// and how to grade them.
type Workload struct {
	Name    string
	Source  string
	Outputs []OutputSpec

	// Classify grades a terminating run against the golden run.
	Classify func(golden, run *Result) Grade

	program *asm.Program
}

// Build compiles the workload (cached).
func (w *Workload) Build() (*asm.Program, error) {
	if w.program != nil {
		return w.program, nil
	}
	p, err := minic.Compile(w.Source)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	w.program = p
	return p, nil
}

// All returns the paper's six benchmarks at the given scale.
func All(scale Scale) []*Workload {
	return []*Workload{
		DCT(scale),
		Jacobi(scale),
		MonteCarloPI(scale),
		Knapsack(scale),
		Deblock(scale),
		Canneal(scale),
	}
}

// ByName returns one workload by its lower-case name.
func ByName(name string, scale Scale) (*Workload, error) {
	for _, w := range All(scale) {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Names lists the workload names in paper order.
func Names() []string {
	return []string{"dct", "jacobi", "pi", "knapsack", "deblock", "canneal"}
}

// ---- shared helpers ----

// bootIters sizes the simulated boot phase per scale.
func bootIters(scale Scale) int {
	switch scale {
	case ScalePaper:
		return 5_000_000
	case ScaleSmall:
		return 300_000
	default:
		return 40_000
	}
}

// bootPreamble returns the guest-side stand-in for the paper's
// pre-checkpoint phase ("booting of the operating system and application
// initialization"): deterministic busywork executed before
// fi_read_init_all. Checkpoint fast-forwarding skips it, which is where
// the Fig. 8 campaign speedups come from; the speedup varies per
// application with the boot/kernel instruction ratio, as in the paper.
func bootPreamble(scale Scale) string {
	return fmt.Sprintf(`
int boot_scratch[16];
void os_boot() {
    for (int i = 0; i < %d; i = i + 1) {
        boot_scratch[i & 15] = boot_scratch[i & 15] + i * 7 + 1;
    }
}
`, bootIters(scale))
}

// lcg is the deterministic host-side input generator.
type lcg struct{ state uint64 }

func newLCG(seed uint64) *lcg { return &lcg{state: seed} }

func (r *lcg) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state >> 17
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

// intArray renders a mini-C int array initializer. Paper-scale inputs
// hold hundreds of thousands of elements, so the text is appended to one
// buffer: repeated string concatenation made rendering quadratic.
func intArray(vals []int64) string {
	b := make([]byte, 0, 2+len(vals)*8)
	b = append(b, '{')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return string(append(b, '}'))
}

// floatArray renders a mini-C float array initializer, appending to one
// buffer like intArray.
func floatArray(vals []float64) string {
	b := make([]byte, 0, 2+len(vals)*12)
	b = append(b, '{')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, formatFloat(v)...)
	}
	return string(append(b, '}'))
}

// formatFloat renders a float64 so it round-trips through the mini-C
// lexer.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.17g", v)
}

// bitsEqual compares two output maps bit-for-bit.
func bitsEqual(a, b map[string][]uint64, specs []OutputSpec) bool {
	for _, s := range specs {
		x, y := a[s.Symbol], b[s.Symbol]
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

// toInt64s converts raw output words to signed samples.
func toInt64s(xs []uint64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
}
