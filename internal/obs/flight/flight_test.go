package flight

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// commit pushes one synthetic committed instruction into the recorder.
func commit(r *Recorder, seq uint64, pc uint64, in isa.Inst, ports isa.RegPorts, out *cpu.ExecOut, loadVal uint64, a *cpu.Arch) {
	if out == nil {
		out = &cpu.ExecOut{}
	}
	if a == nil {
		a = &cpu.Arch{}
	}
	r.OnCommit(&cpu.Commit{Seq: seq, PC: pc, In: in, Ports: ports, Out: out, LoadVal: loadVal, Ticks: seq * 2, Arch: a})
}

func TestRingWrap(t *testing.T) {
	r := NewRecorder(8)
	for i := uint64(0); i < 20; i++ {
		commit(r, i, 0x1000+4*i, isa.Inst{Raw: isa.Word(i)}, isa.RegPorts{}, nil, 0, nil)
	}
	if got := r.Committed(); got != 20 {
		t.Fatalf("Committed() = %d, want 20", got)
	}
	recs := r.Records()
	if len(recs) != 8 {
		t.Fatalf("Records() kept %d, want ring depth 8", len(recs))
	}
	for i, rec := range recs {
		wantSeq := uint64(12 + i) // oldest surviving commit is #12
		if rec.Seq != wantSeq {
			t.Errorf("record %d: seq %d, want %d (oldest-first unwrap)", i, rec.Seq, wantSeq)
		}
		if rec.PC != 0x1000+4*wantSeq {
			t.Errorf("record %d: pc %#x, want %#x", i, rec.PC, 0x1000+4*wantSeq)
		}
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRecorder(16)
	for i := uint64(0); i < 5; i++ {
		commit(r, i, 0x2000+4*i, isa.Inst{}, isa.RegPorts{}, nil, 0, nil)
	}
	recs := r.Records()
	if len(recs) != 5 {
		t.Fatalf("Records() = %d before wrap, want 5", len(recs))
	}
	if recs[0].Seq != 0 || recs[4].Seq != 4 {
		t.Errorf("partial ring out of order: first seq %d last %d", recs[0].Seq, recs[4].Seq)
	}
}

func TestRecordEffects(t *testing.T) {
	r := NewRecorder(8)
	var a cpu.Arch
	a.R[5] = 0xdeadbeef

	// Register write.
	commit(r, 0, 0x100, isa.Inst{}, isa.RegPorts{Dst: 5, DstUsed: true}, nil, 0, &a)
	// Load.
	commit(r, 1, 0x104, isa.Inst{Kind: isa.KindLDQ}, isa.RegPorts{},
		&cpu.ExecOut{EA: 0x8000}, 0x42, &a)
	// Store.
	commit(r, 2, 0x108, isa.Inst{Kind: isa.KindSTQ}, isa.RegPorts{},
		&cpu.ExecOut{EA: 0x8008, StoreVal: 0x77}, 0, &a)
	// Taken branch.
	commit(r, 3, 0x10c, isa.Inst{Kind: isa.KindBEQ}, isa.RegPorts{},
		&cpu.ExecOut{Taken: true, Target: 0x200}, 0, &a)

	recs := r.Records()
	if !recs[0].DstUsed || recs[0].Dst != 5 || recs[0].DstVal != 0xdeadbeef {
		t.Errorf("dst write not captured: %+v", recs[0])
	}
	if !recs[1].Mem || recs[1].Store || recs[1].EA != 0x8000 || recs[1].MemVal != 0x42 {
		t.Errorf("load not captured: %+v", recs[1])
	}
	if !recs[2].Mem || !recs[2].Store || recs[2].EA != 0x8008 || recs[2].MemVal != 0x77 {
		t.Errorf("store not captured: %+v", recs[2])
	}
	if !recs[3].Branch || !recs[3].Taken || recs[3].Target != 0x200 {
		t.Errorf("branch not captured: %+v", recs[3])
	}
}

func TestKeyframes(t *testing.T) {
	r := NewRecorder(256)
	var a cpu.Arch
	for i := uint64(0); i < 1000; i++ {
		a.PC = 0x1000 + 4*i
		commit(r, i, a.PC, isa.Inst{}, isa.RegPorts{}, nil, 0, &a)
	}
	kfs := r.Keyframes()
	if len(kfs) == 0 {
		t.Fatal("no keyframes after 1000 commits")
	}
	if len(kfs) > maxKeyframes {
		t.Fatalf("%d keyframes exceed cap %d", len(kfs), maxKeyframes)
	}
	recs := r.Records()
	oldest, last := recs[0].Seq, recs[len(recs)-1].Seq
	for i, kf := range kfs {
		if kf.Seq > last {
			t.Errorf("keyframe %d seq %d past final record %d", i, kf.Seq, last)
		}
		if i > 0 {
			if kf.Seq <= kfs[i-1].Seq {
				t.Errorf("keyframe %d out of order", i)
			}
			// Only the anchor keyframe may predate the ring window.
			if kf.Seq < oldest {
				t.Errorf("keyframe %d seq %d predates ring window start %d", i, kf.Seq, oldest)
			}
		}
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder(8)
	for i := uint64(0); i < 100; i++ {
		commit(r, i, 0x100, isa.Inst{}, isa.RegPorts{}, nil, 0, nil)
	}
	r.OnSquash(100)
	r.Reset()
	if r.Committed() != 0 || r.Squashed() != 0 {
		t.Errorf("Reset left counters: committed %d squashed %d", r.Committed(), r.Squashed())
	}
	if recs := r.Records(); recs != nil {
		t.Errorf("Reset left %d records", len(recs))
	}
	if kfs := r.Keyframes(); kfs != nil {
		t.Errorf("Reset left %d keyframes", len(kfs))
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	// Every method must be a no-op on the nil receiver — this is the
	// disabled path's contract.
	r.OnCommit(&cpu.Commit{Out: &cpu.ExecOut{}, Arch: &cpu.Arch{}})
	r.OnSquash(0)
	r.Reset()
	if r.Depth() != 0 || r.Committed() != 0 || r.Squashed() != 0 {
		t.Error("nil recorder reports nonzero state")
	}
	if r.Records() != nil || r.Keyframes() != nil {
		t.Error("nil recorder returns contents")
	}
}

// buildDump runs a small synthetic experiment and dumps it as a crashed
// post-mortem with a trap appended.
func buildDump(t *testing.T) *Postmortem {
	t.Helper()
	r := NewRecorder(16)
	for i := uint64(0); i < 100; i++ {
		commit(r, i, 0x1000+4*i, isa.Inst{}, isa.RegPorts{}, nil, 0, nil)
	}
	pm := &Postmortem{
		ExpID: 7, Outcome: "crashed", CrashCause: "unaligned access",
		Fault: "r5@42", InjPC: 0x1000 + 4*90, InjPCValid: true,
		Depth: r.Depth(), Committed: r.Committed(), Squashed: r.Squashed(),
		Records: r.Records(), Keyframes: r.Keyframes(),
	}
	pm.AppendTrap(0xbad0, 0)
	return pm
}

func TestPostmortemRoundTrip(t *testing.T) {
	pm := buildDump(t)
	if pm.FinalPC() != 0xbad0 {
		t.Fatalf("FinalPC() = %#x, want the trap pc %#x", pm.FinalPC(), 0xbad0)
	}
	var buf bytes.Buffer
	if err := pm.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ValidatePostmortemJSON(&buf)
	if err != nil {
		t.Fatalf("WriteJSON output rejected by validator: %v", err)
	}
	if got.FinalPC() != pm.FinalPC() || got.Committed != pm.Committed || len(got.Records) != len(pm.Records) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestPostmortemText(t *testing.T) {
	pm := buildDump(t)
	var buf bytes.Buffer
	if err := pm.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"post-mortem: experiment 7", "<== TRAP (unaligned access)", "<== injection pc", "outcome: crashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestValidatePostmortemRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"unknown outcome", `{"expId":1,"outcome":"exploded","depth":8,"committed":1,"records":[{"seq":1,"tick":1,"pc":16,"raw":0}]}`},
		{"zero depth", `{"expId":1,"outcome":"crashed","depth":0,"committed":1,"records":[{"seq":1,"tick":1,"pc":16,"raw":0}]}`},
		{"no records", `{"expId":1,"outcome":"crashed","depth":8,"committed":0,"records":[]}`},
		{"too many records", `{"expId":1,"outcome":"crashed","depth":1,"committed":3,"records":[{"seq":1,"tick":1,"pc":16,"raw":0},{"seq":2,"tick":1,"pc":20,"raw":0},{"seq":3,"tick":1,"pc":24,"raw":0}]}`},
		{"seq not increasing", `{"expId":1,"outcome":"crashed","depth":8,"committed":2,"records":[{"seq":2,"tick":1,"pc":16,"raw":0},{"seq":2,"tick":2,"pc":20,"raw":0}]}`},
		{"tick decreasing", `{"expId":1,"outcome":"crashed","depth":8,"committed":2,"records":[{"seq":1,"tick":5,"pc":16,"raw":0},{"seq":2,"tick":4,"pc":20,"raw":0}]}`},
		{"trap not last", `{"expId":1,"outcome":"crashed","depth":8,"committed":1,"crashPc":16,"records":[{"seq":1,"tick":1,"pc":16,"raw":0,"trap":true},{"seq":2,"tick":2,"pc":20,"raw":0}]}`},
		{"trap pc mismatch", `{"expId":1,"outcome":"crashed","depth":8,"committed":1,"crashPc":99,"records":[{"seq":1,"tick":1,"pc":16,"raw":0},{"seq":2,"tick":2,"pc":20,"raw":0,"trap":true}]}`},
		{"committed undercount", `{"expId":1,"outcome":"crashed","depth":8,"committed":1,"records":[{"seq":1,"tick":1,"pc":16,"raw":0},{"seq":2,"tick":2,"pc":20,"raw":0}]}`},
		{"keyframe past records", `{"expId":1,"outcome":"crashed","depth":8,"committed":1,"records":[{"seq":1,"tick":1,"pc":16,"raw":0}],"keyframes":[{"seq":9,"tick":9,"pc":16,"r":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"f":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}]}`},
		{"unknown field", `{"expId":1,"outcome":"crashed","depth":8,"committed":1,"bogus":true,"records":[{"seq":1,"tick":1,"pc":16,"raw":0}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ValidatePostmortemJSON(strings.NewReader(tc.json)); err == nil {
				t.Errorf("validator accepted %s", tc.name)
			}
		})
	}
}
