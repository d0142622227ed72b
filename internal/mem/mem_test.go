package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestUnmappedAccessFaults(t *testing.T) {
	m := New()
	if _, err := m.LoadByte(0x100); err == nil {
		t.Fatal("expected fault on unmapped read")
	}
	var ae *AccessError
	_, err := m.Read64(0x100)
	if !errors.As(err, &ae) {
		t.Fatalf("expected AccessError, got %v", err)
	}
	if ae.Addr != 0x100 || ae.Write {
		t.Fatalf("bad AccessError: %+v", ae)
	}
	if err := m.Write64(0x100, 1); err == nil {
		t.Fatal("expected fault on unmapped write")
	}
}

func TestMapMerge(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000)
	m.Map(0x2000, 0x1000) // adjacent: merges
	m.Map(0x5000, 0x1000)
	rs := m.Regions()
	if len(rs) != 2 {
		t.Fatalf("want 2 regions after merge, got %v", rs)
	}
	if !m.Mapped(0x1FFC, 8) {
		t.Error("straddling access within merged region should be mapped")
	}
	if m.Mapped(0x2FFC, 8) {
		t.Error("access crossing end of region must not be mapped")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.Map(0, 1<<20)
	f := func(addr uint32, v uint64) bool {
		a := uint64(addr) % ((1 << 20) - 8)
		if err := m.Write64(a, v); err != nil {
			return false
		}
		got, err := m.Read64(a)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPageStraddlingAccess(t *testing.T) {
	m := New()
	m.Map(0, 2*PageSize)
	addr := uint64(PageSize - 3) // straddles the page boundary
	want := uint64(0x1122334455667788)
	if err := m.Write64(addr, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read64(addr)
	if err != nil || got != want {
		t.Fatalf("straddle: got %x err %v", got, err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New()
	m.Map(0, PageSize)
	if err := m.Write64(0, 0x0807060504030201); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b, _ := m.LoadByte(uint64(i))
		if b != byte(i+1) {
			t.Fatalf("byte %d = %#x", i, b)
		}
	}
	w, _ := m.Read32(0)
	if w != 0x04030201 {
		t.Fatalf("Read32 = %#x", w)
	}
}

func TestSnapshotRestoreIsolation(t *testing.T) {
	m := New()
	m.Map(0, PageSize)
	m.Write64(8, 42)
	snap := m.Snapshot()
	m.Write64(8, 99)
	m.ForkFrom(CowFromSnapshot(snap, 0, 0))
	if v, _ := m.Read64(8); v != 42 {
		t.Fatalf("restore lost value: %d", v)
	}
	// Mutating the restored memory must not corrupt the snapshot.
	m.Write64(8, 7)
	m2 := New()
	m2.ForkFrom(CowFromSnapshot(snap, 0, 0))
	if v, _ := m2.Read64(8); v != 42 {
		t.Fatalf("snapshot aliased: %d", v)
	}
}

func TestCacheHitMiss(t *testing.T) {
	dram := &FixedLatency{Latency: 100}
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 1024, Assoc: 2, LineBytes: 64, HitLatency: 1}, dram)
	// First access misses.
	if lat := c.Access(0, false); lat != 101 {
		t.Fatalf("miss latency = %d, want 101", lat)
	}
	// Same line hits.
	if lat := c.Access(8, false); lat != 1 {
		t.Fatalf("hit latency = %d, want 1", lat)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	dram := &FixedLatency{Latency: 100}
	// 2 sets x 2 ways x 64B = 256B. Lines 0, 2, 4 map to set 0.
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 256, Assoc: 2, LineBytes: 64, HitLatency: 1}, dram)
	c.Access(0*128, false)
	c.Access(1*128, false)
	c.Access(0*128, false) // touch line 0 so line 128 is LRU
	c.Access(2*128, false) // evicts line 128
	if lat := c.Access(0, false); lat != 1 {
		t.Fatal("line 0 should still be resident")
	}
	if lat := c.Access(128, false); lat == 1 {
		t.Fatal("line 128 should have been evicted")
	}
}

func TestCacheWritebackDirty(t *testing.T) {
	dram := &FixedLatency{Latency: 100}
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 128, Assoc: 1, LineBytes: 64, HitLatency: 1}, dram)
	c.Access(0, true)   // dirty line in set 0
	c.Access(128, true) // conflicting line: must write back
	if wb := c.Stats().Writebacks; wb != 1 {
		t.Fatalf("writebacks = %d, want 1", wb)
	}
}

func TestHierarchyL2Shared(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// An instruction fetch warms L2; a data access to the same line should
	// miss L1D but hit L2 (latency < DRAM latency path).
	cold := h.FetchLatency(0x4000)
	warm := h.DataLatency(0x4000, false)
	if warm >= cold {
		t.Fatalf("expected L2 hit to be cheaper: cold=%d warm=%d", cold, warm)
	}
	if h.L2.Stats().Hits != 1 {
		t.Fatalf("L2 stats: %+v", h.L2.Stats())
	}
}

func TestInvalidateAll(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.DataLatency(0, false)
	if lat := h.DataLatency(0, false); lat != 1 {
		t.Fatal("expected warm hit")
	}
	h.InvalidateAll()
	if lat := h.DataLatency(0, false); lat == 1 {
		t.Fatal("expected cold miss after InvalidateAll")
	}
}

func BenchmarkMemoryRead64(b *testing.B) {
	m := New()
	m.Map(0, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Read64(uint64(i*8) % (1 << 19))
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.DataLatency(uint64(i*64)%(1<<18), i&1 == 0)
	}
}
