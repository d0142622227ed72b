package cpu_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// pipelineFor boots src on a fresh pipelined core without cache timing
// (deterministic single-cycle stages).
func pipelineFor(t *testing.T, src string) (*cpu.Core, *cpu.PipelinedModel) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	core := &cpu.Core{Name: "cpu", Mem: mem.New()}
	k := kernel.New(core.Mem)
	if err := k.Boot(core, p); err != nil {
		t.Fatal(err)
	}
	return core, cpu.NewPipelined(core)
}

// TestForwardingEXtoEX: back-to-back dependent ALU ops must see each
// other's results through the bypass network, not stale registers.
func TestForwardingEXtoEX(t *testing.T) {
	core, mdl := pipelineFor(t, `
_start:
    li   t0, 1
    addq t0, t0, t0   ; 2
    addq t0, t0, t0   ; 4
    addq t0, t0, t0   ; 8
    mov  t0, a0
    li   v0, 1
    callsys
`)
	for mdl.Step() {
	}
	if core.ExitStatus != 8 {
		t.Fatalf("exit = %d, want 8 (forwarding broken)", core.ExitStatus)
	}
}

// TestForwardingLoadUse: a load immediately consumed by the next
// instruction must deliver the loaded value.
func TestForwardingLoadUse(t *testing.T) {
	core, mdl := pipelineFor(t, `
_start:
    la   t0, cell
    li   t1, 41
    stq  t1, 0(t0)
    ldq  t2, 0(t0)
    addq t2, #1, a0   ; load-use: must see 41
    li   v0, 1
    callsys
.data
cell: .quad 0
`)
	for mdl.Step() {
	}
	if core.ExitStatus != 42 {
		t.Fatalf("exit = %d, want 42 (load-use forwarding broken)", core.ExitStatus)
	}
}

// TestStoreLoadSameAddress: a store followed immediately by a load of the
// same address must observe the stored value (memory stage ordering).
func TestStoreLoadSameAddress(t *testing.T) {
	core, mdl := pipelineFor(t, `
_start:
    la   t0, cell
    li   t1, 7
    stq  t1, 0(t0)
    li   t1, 9
    stq  t1, 0(t0)
    ldq  a0, 0(t0)
    li   v0, 1
    callsys
.data
cell: .quad 0
`)
	for mdl.Step() {
	}
	if core.ExitStatus != 9 {
		t.Fatalf("exit = %d, want 9", core.ExitStatus)
	}
}

// TestPALSerialization: instructions after a syscall must not execute
// speculatively — the console byte must be exactly one 'A' even though
// the putc sequence is followed by tight code.
func TestPALSerialization(t *testing.T) {
	src := `
_start:
    li   a0, 65
    li   v0, 2
    callsys           ; putc('A')
    li   a0, 0
    li   v0, 1
    callsys           ; exit(0)
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	core := &cpu.Core{Name: "cpu", Mem: mem.New()}
	k := kernel.New(core.Mem)
	if err := k.Boot(core, p); err != nil {
		t.Fatal(err)
	}
	mdl := cpu.NewPipelined(core)
	for mdl.Step() {
	}
	if k.Console() != "A" {
		t.Fatalf("console = %q", k.Console())
	}
	if core.ExitStatus != 0 {
		t.Fatalf("exit = %d", core.ExitStatus)
	}
}

// TestDrainLeavesCleanArchState: draining mid-run must leave the
// architectural PC at the next unexecuted instruction so the atomic
// model can continue seamlessly.
func TestDrainLeavesCleanArchState(t *testing.T) {
	core, mdl := pipelineFor(t, `
_start:
    li   t0, 1000
loop:
    subq t0, #1, t0
    bne  t0, loop
    mov  t0, a0
    li   v0, 1
    callsys
`)
	// Run some cycles, then drain and continue atomically.
	for i := 0; i < 137 && mdl.Step(); i++ {
	}
	mdl.Drain()
	if mdl.InFlight() != 0 {
		t.Fatalf("in flight after drain: %d", mdl.InFlight())
	}
	atomic := cpu.NewAtomic(core)
	for atomic.Step() {
	}
	if core.Trap != nil || core.ExitStatus != 0 {
		t.Fatalf("continuation failed: trap=%v exit=%d", core.Trap, core.ExitStatus)
	}
}

// TestSquashStatisticsAccumulate: a branchy program must squash some
// wrong-path instructions; squash counts and predictor lookups must be
// consistent.
func TestSquashStatisticsAccumulate(t *testing.T) {
	core, mdl := pipelineFor(t, `
_start:
    li   t0, 50
    li   t1, 0
loop:
    and  t0, #1, t2
    beq  t2, even
    addq t1, #3, t1
    br   next
even:
    addq t1, #5, t1
next:
    subq t0, #1, t0
    bne  t0, loop
    mov  t1, a0
    li   v0, 1
    callsys
`)
	for mdl.Step() {
	}
	if core.Trap != nil {
		t.Fatal(core.Trap)
	}
	if mdl.Squashes == 0 {
		t.Error("no squashes in an alternating-branch program")
	}
	if mdl.Pred.Lookups == 0 {
		t.Error("predictor never consulted")
	}
	// 25 odd (+3) + 25 even (+5) = 200.
	if core.ExitStatus != 200 {
		t.Errorf("exit = %d, want 200", core.ExitStatus)
	}
}

// TestTraceFnSeesEveryCommit: a cpu.TraceFunc observer must fire once per committed
// instruction, in program order, on both models.
func TestTraceFnSeesEveryCommit(t *testing.T) {
	src := `
_start:
    li  t0, 5
l:  subq t0, #1, t0
    bne t0, l
    li  a0, 0
    li  v0, 1
    callsys
`
	for _, pipelined := range []bool{false, true} {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		core := &cpu.Core{Name: "cpu", Mem: mem.New()}
		k := kernel.New(core.Mem)
		if err := k.Boot(core, p); err != nil {
			t.Fatal(err)
		}
		var pcs []uint64
		core.Observers = []cpu.Observer{cpu.TraceFunc(func(pc uint64, in isa.Inst) { pcs = append(pcs, pc) })}
		var mdl cpu.Model
		if pipelined {
			mdl = cpu.NewPipelined(core)
		} else {
			mdl = cpu.NewAtomic(core)
		}
		for mdl.Step() {
		}
		if uint64(len(pcs)) != core.Insts {
			t.Errorf("pipelined=%v: traced %d of %d commits", pipelined, len(pcs), core.Insts)
		}
		// First commit is the first instruction of _start.
		if len(pcs) > 0 && pcs[0] != 0x10000 {
			t.Errorf("pipelined=%v: first traced pc = %#x", pipelined, pcs[0])
		}
	}
}
