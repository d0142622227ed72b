// Package mem implements the simulated memory system: a sparse physical
// memory with explicit mapped regions (so that wild accesses fault like a
// virtual-memory system would) and a configurable write-back cache
// hierarchy used for timing, mirroring gem5's "classic" memory system.
package mem

import (
	"bytes"
	"fmt"
	"sort"
)

// PageSize is the allocation granule of the sparse physical memory.
const PageSize = 4096

// AccessError reports an access outside all mapped regions. The simulator
// turns it into a crash outcome ("segmentation fault").
type AccessError struct {
	Addr  uint64
	Write bool
	Size  int
}

// Error implements the error interface.
func (e *AccessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("segfault: %d-byte %s at 0x%x", e.Size, op, e.Addr)
}

// region is a half-open mapped address range [Lo, Hi).
type region struct {
	Lo, Hi uint64
}

// tlb is a one-entry translation cache: the last page touched through a
// port, together with the bounds of the mapped region containing it. A
// hit turns the region binary search plus page-map lookup into three
// compares and a slice index — the dominant cost of the per-access slow
// path. One entry exists per port (instruction fetch, data) so the two
// streams do not evict each other, exactly like a split micro-TLB.
type tlb struct {
	page     []byte // nil: entry invalid
	pageBase uint64 // base address of page
	lo, hi   uint64 // containing mapped region [lo, hi)
	wr       bool   // page is private (writable); false for frozen/zero pages
}

// Memory is a sparse, little-endian physical memory. The zero value is not
// usable; call New.
type Memory struct {
	// pages is the private overlay: every page the memory has written since
	// it was created, forked, or last frozen by CowSnapshot. base is the
	// frozen copy-on-write layer shared with snapshots and sibling forks;
	// it is nil until the first CowSnapshot/ForkFrom and must never be
	// written through. Reads consult pages first, then base; the first
	// write to a frozen page copies it into pages (COW).
	pages  map[uint64][]byte
	base   map[uint64][]byte
	baseID uint64 // identity of the frozen base (CowSnapshot.id), 0 if none

	regions []region // sorted by Lo, non-overlapping, non-adjacent

	fetch tlb // instruction-fetch port (Read32)
	data  tlb // data port (byte/64-bit loads and stores)

	// Text-region write tracking: any store overlapping [textLo, textHi)
	// bumps textGen, invalidating decoded-instruction caches keyed on
	// guest PCs (self-modifying code, store-value faults landing in the
	// text section, forks onto text that is not provably the same).
	textLo, textHi uint64
	textGen        uint64
}

// New returns an empty memory with no mapped regions.
func New() *Memory {
	return &Memory{pages: make(map[uint64][]byte)}
}

// SetTextRegion declares [lo, hi) as the guest text section. Stores
// overlapping it invalidate predecoded-instruction caches via TextGen.
func (m *Memory) SetTextRegion(lo, hi uint64) {
	m.textLo, m.textHi = lo, hi
	m.textGen++
}

// TextGen returns the text-section write generation: it changes whenever
// a store may have modified an instruction word (or ForkFrom replaced the
// text with pages it cannot prove identical). Decoded-instruction caches compare
// it against the generation they were filled at.
func (m *Memory) TextGen() uint64 { return m.textGen }

// TextRegion returns the declared text section [lo, hi); both zero when
// SetTextRegion was never called.
func (m *Memory) TextRegion() (lo, hi uint64) { return m.textLo, m.textHi }

// noteWrite invalidates instruction predecode state when a store of size
// bytes at addr overlaps the text region.
func (m *Memory) noteWrite(addr uint64, size uint64) {
	if addr < m.textHi && addr+size > m.textLo {
		m.textGen++
	}
}

// Map marks [base, base+size) as accessible. Overlapping or adjacent maps
// are merged. Insertion keeps the region list sorted in place (one
// binary search plus a bounded copy) instead of re-sorting the whole
// slice on every call.
func (m *Memory) Map(base, size uint64) {
	if size == 0 {
		return
	}
	lo, hi := base, base+size
	m.fetch, m.data = tlb{}, tlb{}

	// First region starting after lo.
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].Lo > lo })
	// Merge with the predecessor when it touches or overlaps [lo, hi).
	if i > 0 && m.regions[i-1].Hi >= lo {
		i--
		lo = m.regions[i].Lo
		if m.regions[i].Hi > hi {
			hi = m.regions[i].Hi
		}
	}
	// Absorb every following region that touches or overlaps.
	j := i
	for j < len(m.regions) && m.regions[j].Lo <= hi {
		if m.regions[j].Hi > hi {
			hi = m.regions[j].Hi
		}
		j++
	}
	if i == j {
		// Pure insertion between neighbors.
		m.regions = append(m.regions, region{})
		copy(m.regions[i+1:], m.regions[i:])
		m.regions[i] = region{Lo: lo, Hi: hi}
		return
	}
	// Replace regions[i:j] with the single merged region.
	m.regions[i] = region{Lo: lo, Hi: hi}
	m.regions = append(m.regions[:i+1], m.regions[j:]...)
}

// regionFor returns the bounds of the mapped region containing
// [addr, addr+size), or ok=false.
func (m *Memory) regionFor(addr uint64, size int) (lo, hi uint64, ok bool) {
	end := addr + uint64(size)
	if end < addr {
		return 0, 0, false
	}
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].Hi > addr })
	if i < len(m.regions) && m.regions[i].Lo <= addr && end <= m.regions[i].Hi {
		return m.regions[i].Lo, m.regions[i].Hi, true
	}
	return 0, 0, false
}

// Mapped reports whether the full range [addr, addr+size) is mapped.
func (m *Memory) Mapped(addr uint64, size int) bool {
	_, _, ok := m.regionFor(addr, size)
	return ok
}

// Regions returns a copy of the mapped regions as (lo, hi) pairs.
func (m *Memory) Regions() [][2]uint64 {
	out := make([][2]uint64, len(m.regions))
	for i, r := range m.regions {
		out[i] = [2]uint64{r.Lo, r.Hi}
	}
	return out
}

// zeroPage backs reads of never-written pages so the read path allocates
// nothing. It must never be written: every write path goes through
// writablePage, and the TLB wr bit keeps fast-path stores off it.
var zeroPage [PageSize]byte

// writablePage returns the private page containing addr, copying it out
// of the frozen base on the first write after a snapshot (copy-on-write)
// or allocating it zeroed. Any micro-TLB entry caching the superseded
// frozen page is repointed at the private copy so the two ports stay
// coherent.
func (m *Memory) writablePage(addr uint64) []byte {
	pb := addr &^ uint64(PageSize-1)
	p, ok := m.pages[pb]
	if !ok {
		p = make([]byte, PageSize)
		if bp, ok := m.base[pb]; ok {
			copy(p, bp)
		}
		m.pages[pb] = p
		if m.fetch.page != nil && m.fetch.pageBase == pb {
			m.fetch.page, m.fetch.wr = p, true
		}
		if m.data.page != nil && m.data.pageBase == pb {
			m.data.page, m.data.wr = p, true
		}
	}
	return p
}

// readPage returns the current contents of addr's page without making it
// private: the private overlay wins, then the frozen base, then the
// shared zero page. private reports whether the returned page may be
// written in place.
func (m *Memory) readPage(addr uint64) (p []byte, private bool) {
	pb := addr &^ uint64(PageSize-1)
	if p, ok := m.pages[pb]; ok {
		return p, true
	}
	if p, ok := m.base[pb]; ok {
		return p, false
	}
	return zeroPage[:], false
}

// fill performs the slow path of a port access: full mapping check, page
// lookup (with a copy-on-write fault when write is set and the page is
// frozen), TLB refill. It returns the page slice or an error.
func (m *Memory) fill(t *tlb, addr uint64, size int, write bool) ([]byte, error) {
	lo, hi, ok := m.regionFor(addr, size)
	if !ok {
		return nil, &AccessError{Addr: addr, Write: write, Size: size}
	}
	var p []byte
	if write {
		p = m.writablePage(addr)
		t.wr = true
	} else {
		p, t.wr = m.readPage(addr)
	}
	t.page = p
	t.pageBase = addr &^ uint64(PageSize-1)
	t.lo, t.hi = lo, hi
	return p, nil
}

// hit reports whether [addr, addr+size) is fully inside the cached page
// and region of t. size must be <= PageSize. Stores must additionally
// check t.wr before writing through the cached page.
func (t *tlb) hit(addr uint64, size uint64) bool {
	return t.page != nil && addr-t.pageBase <= PageSize-size && addr >= t.lo && t.hi-addr >= size
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint64) (byte, error) {
	if t := &m.data; t.hit(addr, 1) {
		return t.page[addr-t.pageBase], nil
	}
	p, err := m.fill(&m.data, addr, 1, false)
	if err != nil {
		return 0, err
	}
	return p[addr%PageSize], nil
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint64, v byte) error {
	m.noteWrite(addr, 1)
	if t := &m.data; t.wr && t.hit(addr, 1) {
		t.page[addr-t.pageBase] = v
		return nil
	}
	p, err := m.fill(&m.data, addr, 1, true)
	if err != nil {
		return err
	}
	p[addr%PageSize] = v
	return nil
}

// le64 assembles a little-endian 64-bit value from p[off:off+8].
func le64(p []byte, off uint64) uint64 {
	b := p[off : off+8 : off+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// put64 stores v little-endian at p[off:off+8].
func put64(p []byte, off uint64, v uint64) {
	b := p[off : off+8 : off+8]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// Read64 reads a little-endian 64-bit word. The CPU enforces alignment;
// Memory only enforces mapping.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	if t := &m.data; t.hit(addr, 8) {
		return le64(t.page, addr-t.pageBase), nil
	}
	return m.read64Slow(addr)
}

func (m *Memory) read64Slow(addr uint64) (uint64, error) {
	off := addr % PageSize
	if off <= PageSize-8 {
		p, err := m.fill(&m.data, addr, 8, false)
		if err != nil {
			return 0, err
		}
		return le64(p, off), nil
	}
	if !m.Mapped(addr, 8) {
		return 0, &AccessError{Addr: addr, Size: 8}
	}
	var v uint64
	for i := 0; i < 8; i++ {
		b, err := m.LoadByte(addr + uint64(i))
		if err != nil {
			return 0, err
		}
		v |= uint64(b) << (8 * uint(i))
	}
	return v, nil
}

// Write64 writes a little-endian 64-bit word.
func (m *Memory) Write64(addr uint64, v uint64) error {
	m.noteWrite(addr, 8)
	if t := &m.data; t.wr && t.hit(addr, 8) {
		put64(t.page, addr-t.pageBase, v)
		return nil
	}
	return m.write64Slow(addr, v)
}

func (m *Memory) write64Slow(addr uint64, v uint64) error {
	off := addr % PageSize
	if off <= PageSize-8 {
		p, err := m.fill(&m.data, addr, 8, true)
		if err != nil {
			return err
		}
		put64(p, off, v)
		return nil
	}
	if !m.Mapped(addr, 8) {
		return &AccessError{Addr: addr, Write: true, Size: 8}
	}
	for i := 0; i < 8; i++ {
		if err := m.StoreByte(addr+uint64(i), byte(v>>(8*uint(i)))); err != nil {
			return err
		}
	}
	return nil
}

// Read32 reads a little-endian 32-bit word (instruction fetch). It uses
// the dedicated fetch port so data traffic does not evict the
// fetch-stream TLB entry.
func (m *Memory) Read32(addr uint64) (uint32, error) {
	if t := &m.fetch; t.hit(addr, 4) {
		off := addr - t.pageBase
		b := t.page[off : off+4 : off+4]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
	}
	return m.read32Slow(addr)
}

func (m *Memory) read32Slow(addr uint64) (uint32, error) {
	off := addr % PageSize
	if off <= PageSize-4 {
		p, err := m.fill(&m.fetch, addr, 4, false)
		if err != nil {
			return 0, err
		}
		b := p[off : off+4 : off+4]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
	}
	if !m.Mapped(addr, 4) {
		return 0, &AccessError{Addr: addr, Size: 4}
	}
	var v uint32
	for i := 0; i < 4; i++ {
		b, err := m.LoadByte(addr + uint64(i))
		if err != nil {
			return 0, err
		}
		v |= uint32(b) << (8 * uint(i))
	}
	return v, nil
}

// Write32 writes a little-endian 32-bit word (used by the loader).
func (m *Memory) Write32(addr uint64, v uint32) error {
	for i := 0; i < 4; i++ {
		if err := m.StoreByte(addr+uint64(i), byte(v>>(8*uint(i)))); err != nil {
			return err
		}
	}
	return nil
}

// StoreBytes copies b into memory starting at addr, page by page. When
// the full range is mapped (the common case) it runs as a handful of
// bulk copies; otherwise it falls back to the byte loop to preserve the
// partial-write-then-error semantics.
func (m *Memory) StoreBytes(addr uint64, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if !m.Mapped(addr, len(b)) {
		for i, c := range b {
			if err := m.StoreByte(addr+uint64(i), c); err != nil {
				return err
			}
		}
		return nil
	}
	m.noteWrite(addr, uint64(len(b)))
	for len(b) > 0 {
		off := addr % PageSize
		n := copy(m.writablePage(addr)[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// LoadBytes copies n bytes starting at addr, page by page.
func (m *Memory) LoadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if n == 0 {
		return out, nil
	}
	if !m.Mapped(addr, n) {
		for i := range out {
			b, err := m.LoadByte(addr + uint64(i))
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	}
	dst := out
	for len(dst) > 0 {
		off := addr % PageSize
		p, _ := m.readPage(addr)
		c := copy(dst, p[off:])
		dst = dst[c:]
		addr += uint64(c)
	}
	return out, nil
}

// Snapshot captures the full memory contents and mapping for
// checkpointing. Pages are copied.
type Snapshot struct {
	Pages   map[uint64][]byte
	Regions []region
}

// Snapshot returns a deep copy of the memory state, flattening the frozen
// COW base and the private overlay into one page map.
func (m *Memory) Snapshot() Snapshot {
	s := Snapshot{
		Pages:   make(map[uint64][]byte, len(m.base)+len(m.pages)),
		Regions: make([]region, len(m.regions)),
	}
	copy(s.Regions, m.regions)
	for base, p := range m.base {
		if _, dirty := m.pages[base]; dirty {
			continue
		}
		cp := make([]byte, PageSize)
		copy(cp, p)
		s.Pages[base] = cp
	}
	for base, p := range m.pages {
		cp := make([]byte, PageSize)
		copy(cp, p)
		s.Pages[base] = cp
	}
	return s
}

// ByteDiff is one byte-level divergence between two memory snapshots.
type ByteDiff struct {
	Addr uint64 `json:"addr"`
	A    byte   `json:"a"`
	B    byte   `json:"b"`
}

// DiffSnapshots compares two memory snapshots byte by byte and returns up
// to maxDetail individual differences plus the total count. Pages present
// in only one snapshot are compared against zeroes (an unmapped page reads
// as zero). Used by the conformance differ and the taint tracker's
// golden-run architectural differ.
func DiffSnapshots(a, b Snapshot, maxDetail int) (diffs []ByteDiff, total int) {
	seen := make(map[uint64]struct{}, len(a.Pages)+len(b.Pages))
	for base := range a.Pages {
		seen[base] = struct{}{}
	}
	for base := range b.Pages {
		seen[base] = struct{}{}
	}
	bases := make([]uint64, 0, len(seen))
	for base := range seen {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	var zero [PageSize]byte
	for _, base := range bases {
		pa, pb := a.Pages[base], b.Pages[base]
		if pa == nil {
			pa = zero[:]
		}
		if pb == nil {
			pb = zero[:]
		}
		if bytes.Equal(pa, pb) {
			continue
		}
		for i := 0; i < PageSize; i++ {
			if pa[i] != pb[i] {
				total++
				if len(diffs) < maxDetail {
					diffs = append(diffs, ByteDiff{Addr: base + uint64(i), A: pa[i], B: pb[i]})
				}
			}
		}
	}
	return diffs, total
}
