package conformance

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The two fuzz targets below are the differential checks over generated
// programs. Plain `go test` runs each seed-corpus entry (and any input
// saved under testdata/fuzz) as a parallel subtest; `go test -fuzz`
// explores beyond the corpus.

// FuzzLockstep runs a generated program on every model of the lockstep
// run set — atomic, timing, pipelined and the cold atomic interpreter —
// comparing architectural state every 32 commits and the complete final
// state. This is the cross-check that speculation, forwarding, stalls and
// squashes in the pipelined model, and every fast-path cache, are
// semantically invisible. units 0 picks the seed-derived unit count. The
// seed corpus is seeds 1000–1029; TestLockstepRandomPrograms checks seeds
// 0–39 the same way.
//
// A failure reports the seed, the units, the divergence and a minimized
// reproducer.
func FuzzLockstep(f *testing.F) {
	for seed := int64(1000); seed < 1030; seed++ {
		f.Add(seed, uint8(0))
	}
	f.Fuzz(func(t *testing.T, seed int64, units uint8) {
		t.Parallel()
		checkLockstep(t, seed, units)
	})
}

// TestLockstepRandomPrograms is FuzzLockstep's check over the fixed
// generator seeds 0–39 at their seed-derived unit counts.
func TestLockstepRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			checkLockstep(t, seed, 0)
		})
	}
}

// checkLockstep generates the program for seed and units, runs it in
// lockstep on the run set and fails t with the report and a minimized
// reproducer if the models diverge.
func checkLockstep(t *testing.T, seed int64, units uint8) {
	t.Helper()
	p := Generate(seed, GenConfig{Units: int(units)})
	prog, err := p.Build()
	if err != nil {
		t.Fatalf("seed %d, units %d: build: %v", seed, units, err)
	}
	cfg := Config{SyncInterval: 32}
	d, err := RunLockstep(prog, cfg)
	if err != nil {
		t.Fatalf("seed %d, units %d: %v", seed, units, err)
	}
	if d == nil {
		return
	}
	msg := fmt.Sprintf("seed %d, units %d:\n%s", seed, units, d.Report())
	min, md := MinimizeDivergence(p, cfg)
	if min == nil {
		t.Fatal(msg + "(divergence did not reproduce during minimization)")
	}
	if minProg, err := min.Build(); err == nil {
		msg += fmt.Sprintf("minimized reproducer (%d units, %d instructions):\n%s",
			len(min.Units), len(minProg.Text), Listing(minProg))
	}
	if md != nil {
		msg += "minimized divergence:\n" + md.Report()
	}
	t.Fatal(msg)
}

// FuzzForkPoints forks children of a generated program at random commit
// counts: from cold fork points on the atomic model, and from warm walk
// points on atomic, timing and pipelined. Every child, and the trunk that
// served it, must finish bit-identical to the straight run.
func FuzzForkPoints(f *testing.F) {
	for seed := int64(0); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		t.Parallel()
		prog, err := Generate(seed, GenConfig{}).Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		for _, c := range []struct {
			model sim.ModelKind
			warm  bool
		}{
			{sim.ModelAtomic, false},
			{sim.ModelAtomic, true},
			{sim.ModelTiming, true},
			{sim.ModelPipelined, true},
		} {
			if err := checkForkPoints(prog, seed, c.model, c.warm); err != nil {
				t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, Listing(prog))
			}
		}
	})
}

// forkPointsPerRun is how many points checkForkPoints captures on a trunk.
const forkPointsPerRun = 4

// checkForkPoints runs prog straight through on model, then again as a
// trunk that captures a point at each of forkPointsPerRun distinct random
// commit counts inside the run — a warm walk point if warm, else a cold
// fork point — and forks a child from each. Every child, and the trunk
// after its captures, must finish as the straight run did: disposition,
// instructions, ticks, architectural state, console and memory. (The
// atomic model has no caches or pipeline, so a cold point loses no timing
// state there.) Any difference means a capture leaked state across the
// fork boundary or a restore lost some.
func checkForkPoints(prog *asm.Program, seed int64, model sim.ModelKind, warm bool) error {
	newSim := func() (*sim.Simulator, error) {
		s := sim.New(sim.Config{Model: model, MaxInsts: 50_000_000})
		return s, s.Load(prog)
	}
	ref, err := newSim()
	if err != nil {
		return fmt.Errorf("%s: load: %w", model, err)
	}
	want := ref.Run()
	if want.Hung || want.Interrupted {
		return fmt.Errorf("%s: reference run did not finish: %+v", model, want)
	}
	if want.Insts < 2 {
		return fmt.Errorf("%s: no fork point inside a %d-instruction run", model, want.Insts)
	}
	refSnap := ref.Mem.Snapshot()

	rng := rand.New(rand.NewSource(seed ^ 0x666f726b)) // "fork"
	chosen := map[uint64]bool{}
	for len(chosen) < forkPointsPerRun && len(chosen) < int(want.Insts-1) {
		chosen[1+uint64(rng.Int63n(int64(want.Insts-1)))] = true
	}
	points := make([]uint64, 0, len(chosen))
	for at := range chosen {
		points = append(points, at)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })

	trunk, err := newSim()
	if err != nil {
		return fmt.Errorf("%s: load trunk: %w", model, err)
	}
	capture, kind := trunk.CaptureForkPoint, "cold fork point"
	if warm {
		capture, kind = trunk.CaptureWalkPoint, "warm walk point"
	}
	diff := func(s *sim.Simulator, r sim.RunResult) string {
		switch {
		case r.Hung || r.Interrupted || r.Crashed != want.Crashed || r.ExitStatus != want.ExitStatus:
			return fmt.Sprintf("run disposition diverged: %+v vs %+v", r, want)
		case r.Insts != want.Insts:
			return fmt.Sprintf("committed %d insts, straight run %d", r.Insts, want.Insts)
		case r.Ticks != want.Ticks:
			return fmt.Sprintf("took %d ticks, straight run %d", r.Ticks, want.Ticks)
		case !s.Core.Arch.BitsEqual(&ref.Core.Arch):
			return "architectural state diverged"
		case s.Kernel.Console() != ref.Kernel.Console():
			return fmt.Sprintf("console diverged: %q vs %q", s.Kernel.Console(), ref.Kernel.Console())
		}
		if _, total := mem.DiffSnapshots(s.Mem.Snapshot(), refSnap, 4); total != 0 {
			return fmt.Sprintf("%d bytes of memory diverged", total)
		}
		return ""
	}
	for _, at := range points {
		if r := trunk.RunUntil(at); !r.Paused {
			return fmt.Errorf("%s: trunk ended at %d insts before the %s at %d", model, r.Insts, kind, at)
		}
		fp := capture()
		child, err := newSim()
		if err != nil {
			return fmt.Errorf("%s: load child: %w", model, err)
		}
		child.ForkFrom(fp, nil)
		if d := diff(child, child.Run()); d != "" {
			return fmt.Errorf("%s: child of the %s at %d: %s", model, kind, at, d)
		}
	}
	if d := diff(trunk, trunk.Run()); d != "" {
		return fmt.Errorf("%s: trunk after its captures: %s", model, d)
	}
	return nil
}
