package mem

import "testing"

// newTestMem maps one region and writes a recognizable pattern through
// the normal store paths, warming the data micro-TLB.
func newTestMem(t *testing.T) *Memory {
	t.Helper()
	m := New()
	m.Map(0x1000, 4*PageSize)
	for i := uint64(0); i < 4; i++ {
		if err := m.Write64(0x1000+i*PageSize, 0x1111*(i+1)); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	}
	return m
}

func read64(t *testing.T, m *Memory, addr uint64) uint64 {
	t.Helper()
	v, err := m.Read64(addr)
	if err != nil {
		t.Fatalf("read 0x%x: %v", addr, err)
	}
	return v
}

// TestCowForkIsolationChildToTrunk: child writes after a fork must never
// become visible to the trunk or to sibling forks.
func TestCowForkIsolationChildToTrunk(t *testing.T) {
	trunk := newTestMem(t)
	snap := trunk.CowSnapshot()

	childA, childB := New(), New()
	childA.ForkFrom(snap)
	childB.ForkFrom(snap)

	if err := childA.Write64(0x1000, 0xdead); err != nil {
		t.Fatal(err)
	}
	if err := childA.StoreByte(0x1000+PageSize, 0xcc); err != nil {
		t.Fatal(err)
	}
	if got := read64(t, trunk, 0x1000); got != 0x1111 {
		t.Fatalf("child write leaked to trunk: got %#x want 0x1111", got)
	}
	if got := read64(t, childB, 0x1000); got != 0x1111 {
		t.Fatalf("child write leaked to sibling: got %#x want 0x1111", got)
	}
	if got := read64(t, childA, 0x1000); got != 0xdead {
		t.Fatalf("child lost its own write: got %#x", got)
	}
}

// TestCowForkIsolationTrunkToChild: trunk writes after the snapshot must
// never become visible to children forked from it — even when the trunk's
// micro-TLB was warm on the page at freeze time (the stale-writable-TLB
// hazard CowSnapshot exists to close).
func TestCowForkIsolationTrunkToChild(t *testing.T) {
	trunk := newTestMem(t)
	// Warm the data TLB on the page we'll overwrite post-freeze.
	read64(t, trunk, 0x1000)
	snap := trunk.CowSnapshot()

	// Trunk keeps running and dirties the page the snapshot froze.
	if err := trunk.Write64(0x1000, 0xbeef); err != nil {
		t.Fatal(err)
	}

	child := New()
	child.ForkFrom(snap)
	if got := read64(t, child, 0x1000); got != 0x1111 {
		t.Fatalf("trunk post-snapshot write leaked into child: got %#x want 0x1111", got)
	}
	if got := read64(t, trunk, 0x1000); got != 0xbeef {
		t.Fatalf("trunk lost its own post-snapshot write: got %#x", got)
	}
}

// TestCowTLBStalenessAfterFork: a fork must not read through translations
// cached before ForkFrom — the previous address space is gone wholesale.
func TestCowTLBStalenessAfterFork(t *testing.T) {
	a := newTestMem(t)
	if err := a.Write64(0x1000, 0xaaaa); err != nil {
		t.Fatal(err)
	}
	snapA := a.CowSnapshot()

	b := New()
	b.Map(0x1000, 4*PageSize)
	if err := b.Write64(0x1000, 0xbbbb); err != nil {
		t.Fatal(err)
	}
	// Warm both of b's ports on the page.
	read64(t, b, 0x1000)
	if _, err := b.Read32(0x1000); err != nil {
		t.Fatal(err)
	}

	b.ForkFrom(snapA)
	if got := read64(t, b, 0x1000); got != 0xaaaa {
		t.Fatalf("stale data-TLB read after fork: got %#x want 0xaaaa", got)
	}
	if v, err := b.Read32(0x1000); err != nil || v != 0xaaaa {
		t.Fatalf("stale fetch-TLB read after fork: got %#x, %v", v, err)
	}
	// And writes after the fork must not bleed back into the snapshot.
	if err := b.Write64(0x1000, 0xcccc); err != nil {
		t.Fatal(err)
	}
	c := New()
	c.ForkFrom(snapA)
	if got := read64(t, c, 0x1000); got != 0xaaaa {
		t.Fatalf("post-fork write corrupted the snapshot: got %#x", got)
	}
}

// TestCowTextGenAcrossForks: forking must bump the text generation so
// predecoded-instruction caches keyed on the old contents are dropped,
// and text-region stores in a child must keep bumping its own generation
// without touching siblings.
func TestCowTextGenAcrossForks(t *testing.T) {
	trunk := newTestMem(t)
	trunk.SetTextRegion(0x1000, 0x1000+PageSize)
	snap := trunk.CowSnapshot()

	child := New()
	gen0 := child.TextGen()
	child.ForkFrom(snap)
	if child.TextGen() == gen0 {
		t.Fatal("ForkFrom did not bump TextGen")
	}
	if lo, hi := child.TextRegion(); lo != 0x1000 || hi != 0x1000+PageSize {
		t.Fatalf("fork lost text region: [%#x, %#x)", lo, hi)
	}
	gen1 := child.TextGen()
	if err := child.StoreByte(0x1000, 0x90); err != nil {
		t.Fatal(err)
	}
	if child.TextGen() == gen1 {
		t.Fatal("text-region store in child did not bump TextGen")
	}
	sibling := New()
	sibling.ForkFrom(snap)
	sGen := sibling.TextGen()
	if err := child.StoreByte(0x1004, 0x90); err != nil {
		t.Fatal(err)
	}
	if sibling.TextGen() != sGen {
		t.Fatal("child text store bumped sibling TextGen")
	}
}

// TestCowTextGenKeptAcrossSharedForks: re-forking onto a snapshot whose
// frozen text pages are the very pages the memory already reads keeps the
// text generation, so predecoded and translated code survives; a private
// text page in the memory, or different text pages in the snapshot,
// still bump it.
func TestCowTextGenKeptAcrossSharedForks(t *testing.T) {
	trunk := newTestMem(t)
	trunk.SetTextRegion(0x1000, 0x1000+PageSize)
	snap1 := trunk.CowSnapshot()
	if err := trunk.Write64(0x1000+2*PageSize, 0x77); err != nil { // data page only
		t.Fatal(err)
	}
	snap2 := trunk.CowSnapshot()

	child := New()
	child.ForkFrom(snap1)
	gen := child.TextGen()
	if err := child.Write64(0x1000+PageSize, 0x99); err != nil { // data page only
		t.Fatal(err)
	}
	child.ForkFrom(snap2)
	if child.TextGen() != gen {
		t.Fatal("fork onto a snapshot sharing every text page bumped TextGen")
	}

	if err := child.StoreByte(0x1004, 0x90); err != nil {
		t.Fatal(err)
	}
	gen = child.TextGen()
	child.ForkFrom(snap2)
	if child.TextGen() == gen {
		t.Fatal("fork discarding a privately patched text page kept TextGen")
	}
	if v, err := child.LoadByte(0x1004); err != nil || v != 0 {
		t.Fatalf("patched text survived the fork: %#x, %v", v, err)
	}

	if err := trunk.StoreByte(0x1008, 0x90); err != nil {
		t.Fatal(err)
	}
	snap3 := trunk.CowSnapshot()
	gen = child.TextGen()
	child.ForkFrom(snap3)
	if child.TextGen() == gen {
		t.Fatal("fork onto a snapshot with different text pages kept TextGen")
	}

	other := newTestMem(t)
	other.SetTextRegion(0x1000, 0x1000+PageSize)
	gen = child.TextGen()
	child.ForkFrom(other.CowSnapshot())
	if child.TextGen() == gen {
		t.Fatal("fork onto equal but distinct text pages kept TextGen")
	}
}

// TestCowSnapshotChainSharing: successive snapshots must share clean
// pages and account only the pages dirtied since the previous freeze.
func TestCowSnapshotChainSharing(t *testing.T) {
	trunk := newTestMem(t)
	s1 := trunk.CowSnapshot()
	if s1.DirtyPages() != 4 {
		t.Fatalf("first freeze dirty=%d want 4", s1.DirtyPages())
	}
	// Touch exactly one page, freeze again.
	if err := trunk.Write64(0x1000, 0x7777); err != nil {
		t.Fatal(err)
	}
	if trunk.DirtyPages() != 1 {
		t.Fatalf("trunk dirty=%d want 1", trunk.DirtyPages())
	}
	s2 := trunk.CowSnapshot()
	if s2.DirtyPages() != 1 {
		t.Fatalf("second freeze dirty=%d want 1", s2.DirtyPages())
	}
	if s2.Pages() != s1.Pages() {
		t.Fatalf("page counts diverged: s1=%d s2=%d", s1.Pages(), s2.Pages())
	}
	if s2.ApproxBytes() >= s1.ApproxBytes() {
		t.Fatalf("incremental snapshot not cheaper: s1=%d s2=%d bytes",
			s1.ApproxBytes(), s2.ApproxBytes())
	}
	// A no-write freeze shares the base table outright and costs ~nothing.
	s3 := trunk.CowSnapshot()
	if s3.DirtyPages() != 0 {
		t.Fatalf("no-write freeze dirty=%d want 0", s3.DirtyPages())
	}
	// The chain must still read correctly at every layer.
	a, b := New(), New()
	a.ForkFrom(s1)
	b.ForkFrom(s2)
	if got := read64(t, a, 0x1000); got != 0x1111 {
		t.Fatalf("s1 fork reads %#x want 0x1111", got)
	}
	if got := read64(t, b, 0x1000); got != 0x7777 {
		t.Fatalf("s2 fork reads %#x want 0x7777", got)
	}
}

// TestCowSnapshotFlattening: a deep Snapshot taken through a COW stack
// must equal one taken with no COW layer at all, and CowFromSnapshot must
// round-trip it.
func TestCowSnapshotFlattening(t *testing.T) {
	trunk := newTestMem(t)
	snap := trunk.CowSnapshot()
	if err := trunk.Write64(0x1000+2*PageSize, 0xfeed); err != nil {
		t.Fatal(err)
	}
	deep := trunk.Snapshot()

	flat := New()
	flat.Map(0x1000, 4*PageSize)
	for i := uint64(0); i < 4; i++ {
		if err := flat.Write64(0x1000+i*PageSize, 0x1111*(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := flat.Write64(0x1000+2*PageSize, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if _, total := DiffSnapshots(deep, flat.Snapshot(), 4); total != 0 {
		t.Fatalf("COW-flattened snapshot differs from flat memory: %d bytes", total)
	}

	// Round-trip through CowFromSnapshot: a fork of the wrapped deep copy
	// must read identically.
	tw := New()
	tw.ForkFrom(CowFromSnapshot(deep, 0, 0))
	if got := read64(t, tw, 0x1000+2*PageSize); got != 0xfeed {
		t.Fatalf("CowFromSnapshot fork reads %#x want 0xfeed", got)
	}
	_ = snap
}

// TestDiffPrivate: the overlay-only differ must agree with full snapshot
// diffing for same-base forks and refuse cross-base comparisons.
func TestDiffPrivate(t *testing.T) {
	trunk := newTestMem(t)
	snap := trunk.CowSnapshot()
	a, b := New(), New()
	a.ForkFrom(snap)
	b.ForkFrom(snap)
	if n, ok := DiffPrivate(a, b); !ok || n != 0 {
		t.Fatalf("identical forks: total=%d ok=%v", n, ok)
	}
	if err := a.Write64(0x1000, 0x1112); err != nil { // differs in 1 byte
		t.Fatal(err)
	}
	n, ok := DiffPrivate(a, b)
	if !ok || n != 1 {
		t.Fatalf("one-byte divergence: total=%d ok=%v", n, ok)
	}
	// b makes the same write: converged again.
	if err := b.Write64(0x1000, 0x1112); err != nil {
		t.Fatal(err)
	}
	if n, ok := DiffPrivate(a, b); !ok || n != 0 {
		t.Fatalf("converged forks: total=%d ok=%v", n, ok)
	}
	// Cross-base comparisons must be refused.
	other := newTestMem(t)
	o := New()
	o.ForkFrom(other.CowSnapshot())
	if _, ok := DiffPrivate(a, o); ok {
		t.Fatal("DiffPrivate accepted memories with different bases")
	}
	if _, ok := DiffPrivate(New(), New()); ok {
		t.Fatal("DiffPrivate accepted memories with no base")
	}
}

// TestRestoreDropsCowBase: a deep Restore must sever the memory from any
// frozen base so later writes cannot be confused with COW faults.
func TestRestoreDropsCowBase(t *testing.T) {
	trunk := newTestMem(t)
	snap := trunk.CowSnapshot()
	deep := trunk.Snapshot()

	child := New()
	child.ForkFrom(snap)
	if child.BaseID() == 0 {
		t.Fatal("fork did not record base identity")
	}
	child.Restore(deep)
	if child.BaseID() != 0 {
		t.Fatal("Restore left the frozen base attached")
	}
	if got := read64(t, child, 0x1000); got != 0x1111 {
		t.Fatalf("restored child reads %#x want 0x1111", got)
	}
}

// TestConvergedWith pins the exact image-equality check the fork server's
// prune rule rests on: a child that drifted from the trunk's lineage and
// then wrote the golden values back must compare equal, and every kind of
// genuine difference — changed byte, extra nonzero page, region layout —
// must not.
func TestConvergedWith(t *testing.T) {
	trunk := newTestMem(t)
	base := trunk.CowSnapshot()

	// Trunk advances and freezes the anchor the child will be diffed
	// against.
	if err := trunk.Write64(0x1000, 0x2222); err != nil {
		t.Fatal(err)
	}
	anchor := trunk.CowSnapshot()

	child := New()
	child.ForkFrom(base)
	if child.ConvergedWith(anchor) {
		t.Fatal("child at the base snapshot reported converged with a later anchor")
	}
	// Child performs the same write the trunk did — now the images match,
	// even though the child's page is private while the anchor's is frozen.
	if err := child.Write64(0x1000, 0x2222); err != nil {
		t.Fatal(err)
	}
	if !child.ConvergedWith(anchor) {
		t.Fatal("bit-identical images reported diverged")
	}
	// A transient write that is reverted still converges (values, not
	// dirty sets, decide equality)...
	if err := child.Write64(0x2000, 0xdead); err != nil {
		t.Fatal(err)
	}
	if child.ConvergedWith(anchor) {
		t.Fatal("differing byte reported converged")
	}
	if err := child.Write64(0x2000, 0x2222); err != nil { // the seeded value
		t.Fatal(err)
	}
	if !child.ConvergedWith(anchor) {
		t.Fatal("reverted write reported diverged")
	}
	// ...including a dirtied page the anchor never allocated: all-zero
	// content equals unwritten memory.
	if err := child.Write64(0x1000+3*PageSize+512, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if child.ConvergedWith(anchor) {
		t.Fatal("nonzero page outside the anchor reported converged")
	}
	if err := child.Write64(0x1000+3*PageSize+512, 0); err != nil {
		t.Fatal(err)
	}
	if !child.ConvergedWith(anchor) {
		t.Fatal("zeroed extra page reported diverged")
	}
	// A different mapped-region layout can never converge.
	child.Map(0x100000, PageSize)
	if child.ConvergedWith(anchor) {
		t.Fatal("differing region layout reported converged")
	}
}
