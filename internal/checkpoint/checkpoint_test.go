package checkpoint

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// sample builds a non-trivial state.
func sample() *State {
	m := mem.New()
	m.Map(0x1000, 0x2000)
	m.Write64(0x1008, 0xDEADBEEF)
	m.StoreByte(0x1FFF, 0x7F)

	var arch cpu.Arch
	arch.PC = 0x1004
	arch.PCBB = 0xF00000
	for i := range arch.R {
		arch.R[i] = uint64(i) * 3
	}
	for i := range arch.F {
		arch.F[i] = float64(i) * 1.5
	}

	k := kernel.New(m)
	ks := k.Snapshot()
	ks.Console = []byte("boot ok")
	ks.Cur = 1

	return &State{
		Core:   cpu.CoreSnapshot{Arch: arch, Ticks: 999, Insts: 500, Seq: 501, ExitStatus: 0},
		Mem:    m.Snapshot(),
		Kernel: ks,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st := sample()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualState(t, st, got)
}

func TestBytesRoundTrip(t *testing.T) {
	st := sample()
	b, err := st.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualState(t, st, got)
}

func TestFileRoundTrip(t *testing.T) {
	st := sample()
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualState(t, st, got)
}

func TestLoadGarbageFails(t *testing.T) {
	if _, err := FromBytes([]byte("not a checkpoint")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := LoadFile("/nonexistent/path"); err == nil {
		t.Fatal("expected open error")
	}
}

func TestRestoredMemoryMatches(t *testing.T) {
	st := sample()
	b, err := st.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	m.ForkFrom(got.ForkPoint(0, 0).Mem)
	v, err := m.Read64(0x1008)
	if err != nil || v != 0xDEADBEEF {
		t.Errorf("restored mem: %x %v", v, err)
	}
	bb, _ := m.LoadByte(0x1FFF)
	if bb != 0x7F {
		t.Errorf("restored byte: %x", bb)
	}
	if m.Mapped(0x500, 1) {
		t.Error("unmapped region leaked into restore")
	}
}

func assertEqualState(t *testing.T, want, got *State) {
	t.Helper()
	if got.Core.Ticks != want.Core.Ticks || got.Core.Insts != want.Core.Insts ||
		got.Core.Seq != want.Core.Seq {
		t.Errorf("core counters differ: %+v vs %+v", got.Core, want.Core)
	}
	if got.Core.Arch.PC != want.Core.Arch.PC || got.Core.Arch.PCBB != want.Core.Arch.PCBB {
		t.Error("arch PC/PCBB differ")
	}
	for i := range want.Core.Arch.R {
		if got.Core.Arch.R[i] != want.Core.Arch.R[i] {
			t.Fatalf("R[%d] differs", i)
		}
		if math.Float64bits(got.Core.Arch.F[i]) != math.Float64bits(want.Core.Arch.F[i]) {
			t.Fatalf("F[%d] differs", i)
		}
	}
	if string(got.Kernel.Console) != string(want.Kernel.Console) || got.Kernel.Cur != want.Kernel.Cur {
		t.Error("kernel snapshot differs")
	}
	if len(got.Mem.Pages) != len(want.Mem.Pages) {
		t.Errorf("page count %d vs %d", len(got.Mem.Pages), len(want.Mem.Pages))
	}
}
