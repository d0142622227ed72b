package sim

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mem"
)

// These tests pin the basic-block translator's invalidation and bailout
// behavior, mirroring fastpath_fi_test.go: self-modifying code over
// translated blocks, transient fetch corruption over a warm block cache,
// and the window-open/observer-attached fallbacks.

// smcOverTranslatedProgram warms and translates two loops — an
// accumulator subroutine and a byte-copy subroutine — then uses the
// *translated* copy loop to overwrite the accumulator's loop body in
// text. The copy loop's first text store must bail its own block
// mid-chain (generation check after the store) and every stale
// translation of the accumulator must be discarded: the second call has
// to execute the patched instruction (step 3 instead of 1) and exit with
// 40 + 120 = 160. A stale block surviving gives 80.
const smcOverTranslatedProgram = `
_start:
    li   a0, 40
    bsr  ra, sum        ; warm + translate sum's loop: v0 = 40
    mov  v0, s0
    la   a1, sum        ; warm the copy loop harmlessly: text -> scratch
    la   a2, buf
    li   a3, 32
    bsr  ra, copy
    la   a1, donor      ; translated copy loop now patches sum's loop body
    la   a2, sumtgt
    li   a3, 4
    bsr  ra, copy
    li   a0, 40
    bsr  ra, sum        ; must execute the patched body: v0 = 120
    addq s0, v0, a0     ; exit status 160
    li   v0, 1          ; SysExit
    callsys
sum:
    li   t2, 0
sumtgt:
    addq t2, #1, t2     ; patched to: addq t2, #3, t2
    subq a0, #1, a0
    bne  a0, sumtgt
    mov  t2, v0
    ret
copy:
    ldbu t3, 0(a1)
    stb  t3, 0(a2)
    addq a1, #1, a1
    addq a2, #1, a2
    subq a3, #1, a3
    bne  a3, copy
    ret
donor:
    addq t2, #3, t2
    .data
buf:
    .space 64
`

// runAsm assembles src into a fresh simulator and runs it.
func runAsm(t *testing.T, src string, cfg Config) (*Simulator, RunResult) {
	t.Helper()
	s := loadAsm(t, src, cfg)
	return s, s.Run()
}

// loadAsm assembles src into a new simulator.
func loadAsm(t *testing.T, src string, cfg Config) *Simulator {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	s := New(cfg)
	if err := s.Load(p); err != nil {
		t.Fatalf("load: %v", err)
	}
	return s
}

// TestBBTSelfModifyingCodeInvalidates runs the SMC program with block
// translation against the DisableFastPath interpreter: identical exit
// status (160 — the patched body executed), architectural state and
// memory, with the translator demonstrably engaged and invalidated.
func TestBBTSelfModifyingCodeInvalidates(t *testing.T) {
	cfg := Config{Model: ModelAtomic, EnableFI: true, MaxInsts: 10_000_000}
	cfg.EnableBlockTranslation = true
	tr, rt := runAsm(t, smcOverTranslatedProgram, cfg)
	ref, rr := runAsm(t, smcOverTranslatedProgram, Config{
		Model: ModelAtomic, EnableFI: true, MaxInsts: 10_000_000, DisableFastPath: true})
	if !rr.Exited || rr.ExitStatus != 160 {
		t.Fatalf("reference run broken: %+v", rr)
	}
	if !rt.Exited || rt.ExitStatus != 160 {
		t.Fatalf("translated run: exit %d/%+v, want 160 (stale translation survived the text store?)",
			rt.ExitStatus, rt)
	}
	if tr.Core.Arch != ref.Core.Arch || tr.Core.Insts != ref.Core.Insts || tr.Core.Ticks != ref.Core.Ticks {
		t.Errorf("SMC run diverged: insts %d vs %d, ticks %d vs %d",
			tr.Core.Insts, ref.Core.Insts, tr.Core.Ticks, ref.Core.Ticks)
	}
	if _, total := mem.DiffSnapshots(tr.Mem.Snapshot(), ref.Mem.Snapshot(), 4); total != 0 {
		t.Errorf("%d bytes of memory diverged", total)
	}
	st := tr.BBT.Stats
	if st.Compiled == 0 || st.Insts == 0 {
		t.Errorf("translator never engaged: %+v", st)
	}
	if st.Invalidations == 0 {
		t.Errorf("text store never invalidated a translated block: %+v", st)
	}
}

// TestBBTFetchFaultOverWarmBlocks sweeps transient fetch faults over a
// program whose hot code is already translated when the FI window opens.
// Fetch corruption only exists inside the window, where translation is
// disabled, so the run must match the DisableFastPath reference exactly:
// same outcome flags, same architectural state, same memory — a warm
// translated block must neither serve a corrupted fetch nor hide one.
func TestBBTFetchFaultOverWarmBlocks(t *testing.T) {
	fired := 0
	for _, bit := range []int{0, 5, 26} {
		for when := uint64(2); when <= 8; when += 3 {
			f := core.Fault{
				Loc: core.LocFetch, Behavior: core.BehFlip, Bit: bit,
				Base: core.TimeInst, When: when, Occ: 1,
			}
			run := func(bbt, disable bool) (*Simulator, RunResult) {
				s := compileMC(t, fetchFaultProgram, Config{
					Model: ModelAtomic, EnableFI: true, Faults: []core.Fault{f},
					MaxInsts: 10_000_000, EnableBlockTranslation: bbt, DisableFastPath: disable,
				})
				return s, s.Run()
			}
			tr, rt := run(true, false)
			ref, rs := run(false, true)
			if rt.Hung != rs.Hung || rt.Failed() != rs.Failed() {
				t.Errorf("bit=%d when=%d: run disposition diverged: bbt %+v, slow %+v",
					bit, when, rt, rs)
				continue
			}
			ot, os := rt.Outcomes[0], rs.Outcomes[0]
			if ot.Fired != os.Fired || ot.Committed != os.Committed ||
				ot.Squashed != os.Squashed || ot.Propagated != os.Propagated {
				t.Errorf("bit=%d when=%d: outcome diverged: bbt %+v, slow %+v", bit, when, ot, os)
			}
			if ot.Fired {
				fired++
			}
			if tr.Core.Arch != ref.Core.Arch {
				t.Errorf("bit=%d when=%d: architectural state diverged", bit, when)
			}
			if tr.Core.Insts != ref.Core.Insts || tr.Core.Ticks != ref.Core.Ticks {
				t.Errorf("bit=%d when=%d: insts %d vs %d, ticks %d vs %d", bit, when,
					tr.Core.Insts, ref.Core.Insts, tr.Core.Ticks, ref.Core.Ticks)
			}
			if _, total := mem.DiffSnapshots(tr.Mem.Snapshot(), ref.Mem.Snapshot(), 4); total != 0 {
				t.Errorf("bit=%d when=%d: %d bytes of memory diverged", bit, when, total)
			}
			if tr.BBT.Stats.Compiled == 0 {
				t.Errorf("bit=%d when=%d: block cache never warmed — the sweep is vacuous", bit, when)
			}
		}
	}
	if fired == 0 {
		t.Error("no fetch fault in the sweep ever fired — the window never opened?")
	}
}

// TestBBTWindowOpenFallback runs a translation-enabled experiment whose
// FI window opens mid-run (no observers). In-window steps take the
// interpreter, counted as fallbacks, only while the fault is live: from
// the window's first commit to the one the fault fires at. Once the
// engine is quiescent, translated blocks run inside the window.
func TestBBTWindowOpenFallback(t *testing.T) {
	const when = 10
	f := core.Fault{
		Loc: core.LocIntReg, Behavior: core.BehFlip, Bit: 3, Reg: 2,
		Base: core.TimeInst, When: when, Occ: 1,
	}
	golden := compileMC(t, fetchFaultProgram, Config{Model: ModelAtomic, EnableFI: true})
	if r := golden.Run(); !r.Exited {
		t.Fatalf("golden run: %+v", r)
	}
	open, window := golden.WindowOpenInsts, golden.Engine.WindowCommits()

	s := compileMC(t, fetchFaultProgram, Config{
		Model: ModelAtomic, EnableFI: true, Faults: []core.Fault{f},
		MaxInsts: 10_000_000, EnableBlockTranslation: true,
	})
	if r := s.RunUntil(open); !r.Paused || s.WindowOpenInsts != open {
		t.Fatalf("did not pause at the window open (inst %d): %+v", open, r)
	}
	before := s.BBT.Stats
	if before.Insts == 0 {
		t.Errorf("nothing ran translated before the window: %+v", before)
	}
	// Run to the instruction before the closing fi_activate.
	if r := s.RunUntil(open + window - 1); !r.Paused {
		t.Fatalf("did not pause inside the window: %+v", r)
	}
	in := s.BBT.Stats
	// The activating fi_activate commits on the fast path; commits 2..when
	// run hooked, and the last of them fires the fault.
	if got := in.Fallbacks - before.Fallbacks; got != when-1 {
		t.Errorf("%d in-window fallbacks, want the %d steps the fault was live", got, when-1)
	}
	if in.Insts == before.Insts {
		t.Errorf("nothing ran translated inside the window after the fault fired: %+v", in)
	}
	if !s.Engine.Outcomes()[0].Fired || s.Engine.Quiesced != 1 {
		t.Errorf("fault fired=%v, engine quiesced %d times; want fired and once",
			s.Engine.Outcomes()[0].Fired, s.Engine.Quiesced)
	}
	if r := s.Run(); r.Hung {
		t.Fatalf("hung: %+v", r)
	}
}

// TestBBTObserverCampaignNeverTranslates is the satellite referee: a
// campaign-style experiment with taint and flight attached must never
// execute a translated block — inside the FI window or out — because
// both sinks demand per-instruction hooks. The verdict must match a
// translation-free control bit for bit, the translated-instruction
// counter must stay at zero, and the fallback counter must show the
// interpreter carried the whole run.
func TestBBTObserverCampaignNeverTranslates(t *testing.T) {
	f := core.Fault{
		Loc: core.LocIntReg, Behavior: core.BehFlip, Bit: 7, Reg: 3,
		Base: core.TimeInst, When: 20, Occ: 1,
	}
	run := func(bbt bool) (*Simulator, RunResult) {
		s := compileMC(t, fetchFaultProgram, Config{
			Model: ModelAtomic, EnableFI: true, Faults: []core.Fault{f},
			MaxInsts: 10_000_000, EnableBlockTranslation: bbt,
			EnableTaint: true, EnableFlight: true,
		})
		return s, s.Run()
	}
	tr, rt := run(true)
	ref, rr := run(false)
	if rt.Hung != rr.Hung || rt.Failed() != rr.Failed() ||
		rt.Outcomes[0].Fired != rr.Outcomes[0].Fired ||
		rt.Outcomes[0].Propagated != rr.Outcomes[0].Propagated {
		t.Errorf("observed campaign verdict diverged: bbt %+v, control %+v", rt, rr)
	}
	if tr.Core.Arch != ref.Core.Arch || tr.Core.Insts != ref.Core.Insts {
		t.Errorf("observed campaign state diverged")
	}
	st := tr.BBT.Stats
	if st.Insts != 0 || st.Hits != 0 {
		t.Errorf("a translated block executed with taint+flight attached: %+v", st)
	}
	if st.Fallbacks == 0 {
		t.Errorf("fallback counter never moved — the bailout is unobservable: %+v", st)
	}
	if st.Fallbacks < tr.Core.Insts {
		t.Errorf("fallbacks %d < committed insts %d: some steps bypassed the bailout accounting",
			st.Fallbacks, tr.Core.Insts)
	}
}
