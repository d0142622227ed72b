package mem

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// referenceMap is the obvious interval-merge implementation the in-place
// Map insertion must agree with.
func referenceMap(rs [][2]uint64, lo, hi uint64) [][2]uint64 {
	rs = append(rs, [2]uint64{lo, hi})
	sort.Slice(rs, func(i, j int) bool { return rs[i][0] < rs[j][0] })
	out := rs[:1]
	for _, r := range rs[1:] {
		if r[0] <= out[len(out)-1][1] {
			if r[1] > out[len(out)-1][1] {
				out[len(out)-1][1] = r[1]
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

func TestMapInsertInPlaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		m := New()
		var ref [][2]uint64
		for i := 0; i < 30; i++ {
			base := uint64(rng.Intn(64)) * 0x100
			size := uint64(1+rng.Intn(8)) * 0x100
			m.Map(base, size)
			ref = referenceMap(ref, base, base+size)
			got := m.Regions()
			if len(got) != len(ref) {
				t.Fatalf("trial %d step %d: regions %v, want %v", trial, i, got, ref)
			}
			for j := range got {
				if got[j] != ref[j] {
					t.Fatalf("trial %d step %d: regions %v, want %v", trial, i, got, ref)
				}
			}
		}
	}
}

func TestTLBServesFreshDataAfterRestore(t *testing.T) {
	m := New()
	m.Map(0, PageSize)
	if err := m.Write64(0x40, 0xAAAA); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if err := m.Write64(0x40, 0xBBBB); err != nil {
		t.Fatal(err)
	}
	// Both writes went through the data-port TLB; a restore replaces the
	// page backing store and must drop the cached pointer.
	m.ForkFrom(CowFromSnapshot(snap, 0, 0))
	got, err := m.Read64(0x40)
	if err != nil || got != 0xAAAA {
		t.Fatalf("after restore: got %#x err %v, want 0xAAAA", got, err)
	}
}

func TestTLBRespectsRegionBounds(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x100) // a region much smaller than a page
	if err := m.Write64(0x10F8, 1); err != nil {
		t.Fatal(err) // fills the data TLB with this page
	}
	// Same page, but past the end of the mapped region: must still fault.
	if err := m.Write64(0x1100, 2); err == nil {
		t.Fatal("write past region end on a TLB-cached page must fault")
	}
	if _, err := m.Read64(0x10FC); err == nil {
		t.Fatal("read straddling region end must fault")
	}
}

func TestTextGenTracksStores(t *testing.T) {
	m := New()
	m.Map(0, 4*PageSize)
	m.SetTextRegion(0x1000, 0x2000)
	g0 := m.TextGen()

	if err := m.Write64(0x3000, 1); err != nil { // outside text
		t.Fatal(err)
	}
	if m.TextGen() != g0 {
		t.Fatal("store outside text region must not bump TextGen")
	}
	if err := m.Write64(0x1010, 1); err != nil { // inside text
		t.Fatal(err)
	}
	if m.TextGen() == g0 {
		t.Fatal("store inside text region must bump TextGen")
	}

	g1 := m.TextGen()
	if err := m.StoreByte(0x0FFF, 1); err != nil { // last byte before text
		t.Fatal(err)
	}
	if m.TextGen() != g1 {
		t.Fatal("byte store just below text must not bump TextGen")
	}
	if err := m.Write64(0x0FFC, 1); err != nil { // straddles the boundary
		t.Fatal(err)
	}
	if m.TextGen() == g1 {
		t.Fatal("store straddling text start must bump TextGen")
	}

	g2 := m.TextGen()
	if err := m.StoreBytes(0x1800, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if m.TextGen() == g2 {
		t.Fatal("bulk store into text must bump TextGen")
	}

	// A restore from a deep Snapshot copy never shares text pages by
	// pointer, so it cannot prove the text unchanged.
	g3 := m.TextGen()
	lo, hi := m.TextRegion()
	m.ForkFrom(CowFromSnapshot(m.Snapshot(), lo, hi))
	if m.TextGen() == g3 {
		t.Fatal("restore must bump TextGen (page contents replaced)")
	}
}

func TestBulkStoreLoadRoundTrip(t *testing.T) {
	m := New()
	m.Map(0x800, 3*PageSize)
	data := make([]byte, 2*PageSize+77) // spans several pages, odd length
	rng := rand.New(rand.NewSource(5))
	rng.Read(data)
	addr := uint64(0x800 + 13) // misaligned start
	if err := m.StoreBytes(addr, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadBytes(addr, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bulk round trip mismatch")
	}
	// Per-byte reads must observe the same contents as the bulk path.
	for _, off := range []int{0, 1, PageSize - 14, PageSize, len(data) - 1} {
		b, err := m.LoadByte(addr + uint64(off))
		if err != nil || b != data[off] {
			t.Fatalf("byte %d: got %#x err %v, want %#x", off, b, err, data[off])
		}
	}
}

func TestStoreBytesPartialWriteSemantics(t *testing.T) {
	m := New()
	m.Map(0, 0x10) // only 16 bytes mapped
	err := m.StoreBytes(0x8, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err == nil {
		t.Fatal("store running off the mapping must fault")
	}
	// The mapped prefix was written before the fault (byte-loop fallback).
	for i := 0; i < 8; i++ {
		b, err := m.LoadByte(0x8 + uint64(i))
		if err != nil || b != byte(i+1) {
			t.Fatalf("prefix byte %d: got %d err %v", i, b, err)
		}
	}
}

func TestCacheMRUFastPathStats(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Repeated accesses to one line: 1 miss then hits, identical to the
	// pre-fast-path accounting.
	for i := 0; i < 10; i++ {
		h.L1D.Access(0x100, false)
	}
	s := h.L1D.Stats()
	if s.Misses != 1 || s.Hits != 9 {
		t.Fatalf("MRU path stats: %+v", s)
	}
	// Evicting the MRU line (same set, different tags beyond assoc) must
	// not let the stale pointer report a bogus hit.
	cfg := CacheConfig{Name: "tiny", SizeBytes: 128, Assoc: 2, LineBytes: 64, HitLatency: 1}
	c := NewCache(cfg, &FixedLatency{Latency: 10})
	c.Access(0x0, false)   // set 0
	c.Access(0x80, false)  // set 0, second way
	c.Access(0x100, false) // set 0, evicts LRU (0x0); MRU now 0x100's line
	if _, miss := c.AccessM(0x0, false); !miss {
		t.Fatal("access to evicted line must miss")
	}
	c.InvalidateAll()
	if _, miss := c.AccessM(0x100, false); !miss {
		t.Fatal("access after InvalidateAll must miss")
	}
}

// BenchmarkMapManyRegions measures Map with a large interleaved region
// set — the in-place insertion versus the previous append-and-resort.
func BenchmarkMapManyRegions(b *testing.B) {
	const n = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New()
		// Interleave two strides so insertions land in the middle of the
		// sorted list rather than always appending at the end.
		for j := 0; j < n; j++ {
			m.Map(uint64(j)*0x4000, 0x1000)
			m.Map(uint64(n-1-j)*0x4000+0x2000, 0x1000)
		}
	}
}
