package campaign

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestDefUseNext checks lookups across the log's marks: the first access
// strictly after a commit, reads before a write at the same commit, and
// the end of the log.
func TestDefUseNext(t *testing.T) {
	var x defUse
	l := x.slot(true, 5)
	// Reads at 10, 20, ..., a write at 15 and a read then a write at 400.
	for k := uint64(10); k < 400; k += 10 {
		l.add(k, true)
		if k == 10 {
			l.add(15, false)
		}
	}
	l.add(400, true)
	l.add(400, false) // after a read of the same commit: never first
	for _, tc := range []struct {
		k        uint64
		at       uint64
		read, ok bool
	}{
		{k: 0, at: 10, read: true, ok: true},
		{k: 10, at: 15, ok: true},
		{k: 15, at: 20, read: true, ok: true},
		{k: 333, at: 340, read: true, ok: true},
		{k: 390, at: 400, read: true, ok: true},
		{k: 400},
	} {
		at, read, ok := x.next(true, 5, tc.k)
		if at != tc.at || read != tc.read || ok != tc.ok {
			t.Errorf("next after %d = (%d, %v, %v), want (%d, %v, %v)", tc.k, at, read, ok, tc.at, tc.read, tc.ok)
		}
	}
	if _, _, ok := x.next(false, 5, 0); ok {
		t.Error("r5 was never accessed, but its log has an access")
	}
	if len(l.marks) < 2 {
		t.Fatalf("%d marks for %d accesses: the lookups above never crossed one", len(l.marks), l.n)
	}
}

// TestDefUseTranslated pins the trunk's def-use index to the
// interpreter: built while the trunk runs translated blocks, it must
// equal the index of an interpreted trunk, byte for byte.
func TestDefUseTranslated(t *testing.T) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		var idx [2]*defUse
		for i, bbt := range []bool{true, false} {
			cfg := SimConfig(sim.ModelAtomic, 0)
			cfg.EnableBlockTranslation = bbt
			r, err := NewRunner(w, RunnerOptions{Cfg: &cfg})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.EnableFork(DefaultForkOptions()); err != nil {
				t.Fatal(err)
			}
			idx[i] = r.fork.defuse
		}
		if idx[0] == nil || idx[0].bytes() == 0 {
			t.Fatalf("%s: no def-use index recorded", w.Name)
		}
		for r := range idx[0].regs {
			if !reflect.DeepEqual(idx[0].regs[r], idx[1].regs[r]) {
				t.Errorf("%s: register %d's log differs translated (%d accesses) and interpreted (%d)",
					w.Name, r, idx[0].regs[r].n, idx[1].regs[r].n)
			}
		}
	}
}
