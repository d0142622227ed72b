package mem

import (
	"math/rand"
	"testing"
)

// accessTrace replays n pseudo-random accesses over a footprint larger
// than the L1s and returns the latencies.
func accessTrace(h *Hierarchy, rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		addr := uint64(rng.Intn(1<<18)) &^ 7
		switch rng.Intn(3) {
		case 0:
			out[i] = h.FetchLatency(addr)
		case 1:
			out[i] = h.DataLatency(addr, false)
		default:
			out[i] = h.DataLatency(addr, true)
		}
	}
	return out
}

func equalTraces(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// TestCacheInvalidateMatchesFresh requires invalidation, which zeroes
// only the sets in use, to leave a hierarchy that behaves as a freshly
// built one: same latencies for the same accesses.
func TestCacheInvalidateMatchesFresh(t *testing.T) {
	used := NewHierarchy(DefaultHierarchyConfig())
	accessTrace(used, rand.New(rand.NewSource(1)), 20000)
	used.InvalidateAll()
	fresh := NewHierarchy(DefaultHierarchyConfig())
	a := accessTrace(used, rand.New(rand.NewSource(2)), 20000)
	b := accessTrace(fresh, rand.New(rand.NewSource(2)), 20000)
	if !equalTraces(a, b) {
		t.Fatal("an invalidated hierarchy diverged from a fresh one")
	}
}

// TestHierarchyCaptureRestore captures a hierarchy mid-trace, restores it
// into one used for something else, and requires both to continue with
// the same latencies and end with the same statistics.
func TestHierarchyCaptureRestore(t *testing.T) {
	orig := NewHierarchy(DefaultHierarchyConfig())
	accessTrace(orig, rand.New(rand.NewSource(3)), 15000)
	st := orig.Capture()

	other := NewHierarchy(DefaultHierarchyConfig())
	accessTrace(other, rand.New(rand.NewSource(4)), 2000) // its LRU clock stays behind
	other.Restore(st)

	a := accessTrace(orig, rand.New(rand.NewSource(5)), 15000)
	b := accessTrace(other, rand.New(rand.NewSource(5)), 15000)
	if !equalTraces(a, b) {
		t.Fatal("restored hierarchy diverged from the original")
	}
	for _, lv := range [][2]*Cache{{orig.L1I, other.L1I}, {orig.L1D, other.L1D}, {orig.L2, other.L2}} {
		if lv[0].Stats() != lv[1].Stats() {
			t.Errorf("%s: stats %+v, restored %+v", lv[0].Config().Name, lv[0].Stats(), lv[1].Stats())
		}
	}
	if orig.DRAM.Accesses != other.DRAM.Accesses {
		t.Errorf("dram accesses %d, restored %d", orig.DRAM.Accesses, other.DRAM.Accesses)
	}
}

// TestPortsCarryHistory pins why walk points carry the micro-TLBs: an
// access past the end of a region, inside a page a port caches, succeeds
// through the port and faults on the slow path. Ports/SetPorts must carry
// that over a freeze and into a fork.
func TestPortsCarryHistory(t *testing.T) {
	m := New()
	m.Map(0x10000, 0x100)
	if err := m.Write64(0x10000, 1); err != nil {
		t.Fatal(err)
	}
	const past = 0x10200 // same page, outside the region
	if _, err := m.Read64(past); err != nil {
		t.Fatalf("port hit past the region: %v (the quirk this test pins is gone)", err)
	}
	ports := m.Ports()
	snap := m.CowSnapshot()
	if _, err := m.Read64(past); err == nil {
		t.Fatal("a flushed port still reached past the region")
	}
	m.SetPorts(ports)
	if err := m.Write64(past, 7); err != nil {
		t.Errorf("after SetPorts: %v", err)
	}
	child := New()
	child.ForkFrom(snap)
	child.SetPorts(ports)
	if v, err := child.Read64(0x10000); err != nil || v != 1 {
		t.Errorf("fork reads %d, %v", v, err)
	}
	if err := child.Write64(past, 9); err != nil {
		t.Errorf("fork after SetPorts: %v", err)
	}
	if v, _ := m.Read64(past); v != 7 {
		t.Errorf("fork's store leaked into the original: %d", v)
	}
}
