package conformance

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestGenerateIsDeterministic(t *testing.T) {
	a, b := Generate(3, GenConfig{}), Generate(3, GenConfig{})
	if len(a.Units) != len(b.Units) {
		t.Fatalf("unit counts differ: %d vs %d", len(a.Units), len(b.Units))
	}
	for i := range a.Units {
		if a.Units[i].Desc != b.Units[i].Desc {
			t.Fatalf("unit %d differs: %q vs %q", i, a.Units[i].Desc, b.Units[i].Desc)
		}
	}
	pa, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa.Text, pb.Text) {
		t.Fatal("same seed produced different code")
	}
}

// A perturbed model must be caught by the harness and shrink to a
// reproducer of at most 10 instructions (the corrupted register is the
// scratch base, so even the empty-body program still exposes it).
func TestPerturbedModelIsCaughtAndShrunk(t *testing.T) {
	cfg := Config{
		SyncInterval: 8,
		Perturb:      &PerturbSpec{Model: sim.ModelPipelined, After: 2, Reg: 9, Bit: 17},
	}
	p := Generate(11, GenConfig{Units: 40})

	prog, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d, err := RunLockstep(prog, Config{SyncInterval: 8}); err != nil || d != nil {
		t.Fatalf("unperturbed baseline must be clean, got d=%v err=%v", d, err)
	}

	d, err := RunLockstep(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("perturbed pipelined model was not detected")
	}
	if d.Kind != "register" {
		t.Errorf("divergence kind = %q, want register", d.Kind)
	}
	if !strings.Contains(d.Report(), "DIVERGENCE") {
		t.Errorf("report missing header:\n%s", d.Report())
	}

	min, md := MinimizeDivergence(p, cfg)
	if min == nil || md == nil {
		t.Fatal("minimization lost the divergence")
	}
	minProg, err := min.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Units) != 0 {
		t.Errorf("shrunk program still has %d units, want 0", len(min.Units))
	}
	if len(minProg.Text) > 10 {
		t.Errorf("shrunk reproducer has %d instructions, want <= 10:\n%s",
			len(minProg.Text), Listing(minProg))
	}
}

// Shrink must find the single offending unit regardless of where it sits.
func TestShrinkIsolatesOffendingUnit(t *testing.T) {
	p := Generate(5, GenConfig{Units: 60})
	needle := p.Units[37].Desc
	count := 0
	for _, u := range p.Units {
		if u.Desc == needle {
			count++
		}
	}
	fails := func(q *Program) bool {
		n := 0
		for _, u := range q.Units {
			if u.Desc == needle {
				n++
			}
		}
		return n == count // "fails" while every copy of the needle survives
	}
	min := Shrink(p, fails)
	if len(min.Units) != count {
		t.Fatalf("shrunk to %d units, want %d (%q)", len(min.Units), count, needle)
	}
	for _, u := range min.Units {
		if u.Desc != needle {
			t.Fatalf("kept non-needle unit %q", u.Desc)
		}
	}
}

func TestTraceEncodeParseRoundTrip(t *testing.T) {
	orig := &Trace{
		Workload:   "pi",
		Scale:      "test",
		Model:      sim.ModelAtomic,
		Interval:   1000,
		Insts:      123456,
		ExitStatus: 0,
		ConsoleFNV: 0xdeadbeefcafef00d,
		ArchFNV:    0x0123456789abcdef,
		MemFNV:     0xfedcba9876543210,
		Windows:    []uint64{1, 0xffffffffffffffff, 42},
		Final:      0x1122334455667788,
	}
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip changed trace:\nwant %+v\ngot  %+v", orig, got)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not a trace\n",
		"gemfi-trace v1\nbogus-key 12\n",
		"gemfi-trace v1\ninterval 100\n", // missing workload
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}
