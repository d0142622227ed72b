package mem

// This file implements copy-on-write, page-granular memory snapshots for
// the campaign fork server (GemFI §III.D checkpointing, ZOFI's fork
// model). Freezing a memory turns its private pages into an immutable
// base layer shared by reference; the trunk and every fork then write
// into fresh private overlays, so forking a simulator costs O(dirty
// pages) rather than O(memory). Frozen page maps are never mutated after
// creation, which makes them safe to share across campaign worker
// goroutines without locks.

import (
	"bytes"
	"sync/atomic"
)

// cowIDs hands out snapshot identities; Memory.baseID records which
// frozen base a memory is layered on so DiffPrivate can prove two forks
// share page content outside their overlays.
var cowIDs atomic.Uint64

// CowSnapshot is a frozen, shareable memory image. The page map and every
// page in it are immutable; any number of memories may fork from it
// concurrently. Snapshots taken later in the same run share clean pages
// with earlier ones, so a chain of snapshots costs the sum of pages
// dirtied between them, not a full copy each.
type CowSnapshot struct {
	id             uint64
	pages          map[uint64][]byte // frozen: never written after creation
	regions        []region
	textLo, textHi uint64
	dirty          int // private pages folded into the base by this freeze
}

// Pages returns the number of pages reachable from the snapshot.
func (s *CowSnapshot) Pages() int { return len(s.pages) }

// DirtyPages returns how many pages had been written since the previous
// freeze — the incremental cost of taking this snapshot.
func (s *CowSnapshot) DirtyPages() int { return s.dirty }

// ApproxBytes estimates the heap uniquely attributable to this snapshot:
// the pages dirtied since the previous freeze plus its share of the
// page-pointer table. Clean pages are shared with older snapshots and
// cost nothing here.
func (s *CowSnapshot) ApproxBytes() uint64 {
	const ptrEntry = 40 // map bucket share: key + slice header
	return uint64(s.dirty)*PageSize + uint64(len(s.pages))*ptrEntry
}

// CowSnapshot freezes the memory's current contents into a shareable
// snapshot. The private overlay is folded into a new frozen base (by
// pointer, no page copies), the memory continues with an empty overlay
// layered on that base, and both per-port micro-TLBs are invalidated —
// a cached writable page is frozen now, and writing through it would
// corrupt every fork taken from the snapshot.
func (m *Memory) CowSnapshot() *CowSnapshot {
	dirty := len(m.pages)
	var frozen map[uint64][]byte
	switch {
	case m.base == nil:
		frozen = make(map[uint64][]byte, dirty)
		for b, p := range m.pages {
			frozen[b] = p
		}
	case dirty == 0:
		// Nothing written since the last freeze: the previous base IS the
		// current contents; share its table outright.
		frozen = m.base
	default:
		frozen = make(map[uint64][]byte, len(m.base)+dirty)
		for b, p := range m.base {
			frozen[b] = p
		}
		for b, p := range m.pages {
			frozen[b] = p
		}
	}
	s := &CowSnapshot{
		id:      cowIDs.Add(1),
		pages:   frozen,
		regions: append([]region(nil), m.regions...),
		textLo:  m.textLo,
		textHi:  m.textHi,
		dirty:   dirty,
	}
	m.base = frozen
	m.baseID = s.id
	m.pages = make(map[uint64][]byte)
	m.fetch, m.data = tlb{}, tlb{}
	return s
}

// ForkFrom points the memory at a snapshot's frozen pages with an empty
// private overlay — the O(dirty pages) half of forking a simulator. Both
// micro-TLBs are invalidated. The text generation is bumped unless the
// text the memory holds now is provably the snapshot's: same text region,
// no private text page, and every frozen text page pointer-identical.
// Frozen pages are immutable, so then every cached translation and
// predecoded instruction is still exact and survives the fork.
func (m *Memory) ForkFrom(s *CowSnapshot) {
	sameText := m.textSharedWith(s)
	m.base = s.pages
	m.baseID = s.id
	m.pages = make(map[uint64][]byte)
	m.regions = append([]region(nil), s.regions...)
	m.textLo, m.textHi = s.textLo, s.textHi
	m.fetch, m.data = tlb{}, tlb{}
	if !sameText {
		m.textGen++
	}
}

// textSharedWith reports whether the memory's text section is the
// snapshot's by construction: the same declared region, every text page
// read from the frozen base (none private), and each base page the very
// page the snapshot holds, or absent from both.
func (m *Memory) textSharedWith(s *CowSnapshot) bool {
	if m.textLo != s.textLo || m.textHi != s.textHi || m.textLo >= m.textHi {
		return false
	}
	for pb := m.textLo &^ uint64(PageSize-1); pb < m.textHi; pb += PageSize {
		if _, private := m.pages[pb]; private {
			return false
		}
		mp, mok := m.base[pb]
		sp, sok := s.pages[pb]
		if mok != sok || mok && &mp[0] != &sp[0] {
			return false
		}
	}
	return true
}

// CowFromSnapshot wraps a deep Snapshot as a fork point, so code paths
// exercised with COW snapshots can be replayed bit-for-bit from a plain
// deep copy (the conformance suite's "deep twin"). The snapshot's pages
// are adopted by reference and must not be mutated afterwards.
func CowFromSnapshot(s Snapshot, textLo, textHi uint64) *CowSnapshot {
	pages := make(map[uint64][]byte, len(s.Pages))
	for b, p := range s.Pages {
		pages[b] = p
	}
	return &CowSnapshot{
		id:      cowIDs.Add(1),
		pages:   pages,
		regions: append([]region(nil), s.Regions...),
		textLo:  textLo,
		textHi:  textHi,
		dirty:   len(s.Pages),
	}
}

// DirtyPages returns the number of private pages written since the last
// freeze, restore, or creation — the memory's current fork cost.
func (m *Memory) DirtyPages() int { return len(m.pages) }

// allZero reports whether every byte of a page is zero — the value an
// allocated-on-one-side-only page must hold for the two images to match,
// since unwritten mapped memory reads as zeros.
func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// ConvergedWith reports whether the memory's full image is bit-identical
// to a frozen snapshot's. Pages shared by pointer compare in O(1), so for
// a fork whose lineage passed through the snapshot's base the check costs
// a map sweep plus byte-compares of the few genuinely private pages. The
// mapped-region layout must match too — image equality is meaningless
// across different address spaces.
func (m *Memory) ConvergedWith(s *CowSnapshot) bool {
	if len(m.regions) != len(s.regions) {
		return false
	}
	for i, r := range m.regions {
		if r != s.regions[i] {
			return false
		}
	}
	for addr, sp := range s.pages {
		mp, ok := m.pages[addr]
		if !ok {
			mp, ok = m.base[addr]
		}
		if !ok {
			if !allZero(sp) {
				return false
			}
			continue
		}
		if &mp[0] == &sp[0] {
			continue
		}
		if !bytes.Equal(mp, sp) {
			return false
		}
	}
	for addr, mp := range m.pages {
		if _, ok := s.pages[addr]; !ok && !allZero(mp) {
			return false
		}
	}
	for addr, mp := range m.base {
		if _, ok := s.pages[addr]; ok {
			continue
		}
		if _, ok := m.pages[addr]; ok {
			continue
		}
		if !allZero(mp) {
			return false
		}
	}
	return true
}

// BaseID identifies the frozen base the memory is layered on (0 when it
// has none).
func (m *Memory) BaseID() uint64 { return m.baseID }

// DiffPrivate counts byte differences between two memories forked from
// the same frozen base by walking only their private overlays — pages
// outside both overlays are shared by construction and cannot differ.
// ok=false when the memories do not share a base, in which case the
// caller must fall back to full Snapshot diffing.
func DiffPrivate(a, b *Memory) (total int, ok bool) {
	if a.baseID == 0 || a.baseID != b.baseID {
		return 0, false
	}
	seen := make(map[uint64]struct{}, len(a.pages)+len(b.pages))
	for pb := range a.pages {
		seen[pb] = struct{}{}
	}
	for pb := range b.pages {
		seen[pb] = struct{}{}
	}
	for pb := range seen {
		pa, aok := a.pages[pb]
		if !aok {
			if bp, k := a.base[pb]; k {
				pa = bp
			} else {
				pa = zeroPage[:]
			}
		}
		pb2, bok := b.pages[pb]
		if !bok {
			if bp, k := b.base[pb]; k {
				pb2 = bp
			} else {
				pb2 = zeroPage[:]
			}
		}
		if bytes.Equal(pa, pb2) {
			continue
		}
		for i := 0; i < PageSize; i++ {
			if pa[i] != pb2[i] {
				total++
			}
		}
	}
	return total, true
}
