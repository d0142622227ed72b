package conformance

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Divergence describes the first observed disagreement between two CPU
// models running the same program, with enough context (recent committed
// traces on both sides) to localize the model bug.
type Divergence struct {
	ModelA, ModelB string // model names; A is the comparison reference
	Kind           string // register, fp-register, pc, pcbb, memory, exit, trap, retired, console, hang
	AtInsts        uint64 // committed-instruction count at detection (0 = end of run)
	Detail         string
	TraceA, TraceB []TraceEntry // recent commits, oldest first
}

func newDivergence(a, b *modelRun, kind, detail string) *Divergence {
	return &Divergence{
		ModelA: a.name,
		ModelB: b.name,
		Kind:   kind,
		Detail: detail,
		TraceA: append([]TraceEntry(nil), a.trace.Entries()...),
		TraceB: append([]TraceEntry(nil), b.trace.Entries()...),
	}
}

func (d *Divergence) at(insts uint64) *Divergence {
	d.AtInsts = insts
	return d
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("conformance: %s vs %s diverged (%s): %s", d.ModelA, d.ModelB, d.Kind, d.Detail)
}

// Report renders a human-readable divergence report: the mismatch, then a
// side-by-side diff of the two models' recently committed instructions,
// disassembled, with `!` marking rows where the models disagree.
func (d *Divergence) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DIVERGENCE [%s] %s vs %s\n", d.Kind, d.ModelA, d.ModelB)
	if d.AtInsts > 0 {
		fmt.Fprintf(&sb, "  at %d committed instructions\n", d.AtInsts)
	}
	fmt.Fprintf(&sb, "  %s\n", d.Detail)
	n := len(d.TraceA)
	if len(d.TraceB) > n {
		n = len(d.TraceB)
	}
	if n == 0 {
		return sb.String()
	}
	fmt.Fprintf(&sb, "  last committed instructions (%s | %s):\n", d.ModelA, d.ModelB)
	for i := 0; i < n; i++ {
		left, right := traceCol(d.TraceA, i), traceCol(d.TraceB, i)
		mark := " "
		if left != right {
			mark = "!"
		}
		fmt.Fprintf(&sb, "  %s %-44s | %s\n", mark, left, right)
	}
	return sb.String()
}

func traceCol(t []TraceEntry, i int) string {
	if i >= len(t) {
		return ""
	}
	e := t[i]
	return fmt.Sprintf("#%-6d %08x: %s", e.N, e.PC, isa.Decode(e.Word).Disassemble(0))
}

// Listing disassembles a built program's text section, one instruction
// per line, for inclusion in reproducer reports.
func Listing(prog *asm.Program) string {
	var sb strings.Builder
	for i, w := range prog.Text {
		pc := prog.TextBase + uint64(i)*4
		fmt.Fprintf(&sb, "%08x: %08x  %s\n", pc, uint32(w), isa.Decode(w).Disassemble(0))
	}
	return sb.String()
}
