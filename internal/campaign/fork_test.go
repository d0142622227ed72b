package campaign

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sim"
)

// poolFP fabricates a fork point whose WindowCommits reports win, for
// exercising the snapshot pool without a simulator.
func poolFP(win uint64) *checkpoint.ForkPoint {
	fp := &checkpoint.ForkPoint{}
	if win > 0 {
		fp.Window.Threads = map[uint64]core.ThreadEnabledFault{1: {Commits: win}}
	}
	return fp
}

func TestSnapPoolBestPicksClosestPreceding(t *testing.T) {
	sp := &snapPool{maxLive: 16}
	sp.setRoot(poolFP(0))
	for _, w := range []uint64{100, 200, 300} {
		sp.insert(poolFP(w))
	}
	for _, tc := range []struct {
		when     uint64
		rootOnly bool
		want     uint64
	}{
		{when: 250, want: 200},
		{when: 301, want: 300},
		// A fault firing exactly at a snapshot's commit count must fork
		// from the snapshot before it: at win == When the fault has
		// already fired on the trunk.
		{when: 200, want: 100},
		{when: 100, want: 0},
		{when: 50, want: 0},
		{when: 999, rootOnly: true, want: 0},
	} {
		got := sp.best(tc.when, tc.rootOnly)
		if got.win != tc.want {
			t.Errorf("best(%d, rootOnly=%v) = win %d, want %d", tc.when, tc.rootOnly, got.win, tc.want)
		}
	}
}

func TestSnapPoolThinningAccounting(t *testing.T) {
	sp := &snapPool{maxLive: 4}
	sp.setRoot(poolFP(0))
	for i := uint64(1); i <= 12; i++ {
		sp.insert(poolFP(i * 10))
	}
	taken, evicted, live, bytes := sp.stats()
	if taken != 13 { // root + 12 inserts
		t.Errorf("taken = %d, want 13", taken)
	}
	if live > sp.maxLive+1 { // +1 for the root, which is never evicted
		t.Errorf("live = %d exceeds bound %d", live, sp.maxLive+1)
	}
	if int(evicted) != 13-live {
		t.Errorf("accounting broken: taken %d, evicted %d, live %d", taken, evicted, live)
	}
	if bytes == 0 {
		t.Error("ApproxBytes sum is zero for a non-empty pool")
	}
	// Build-time thinning keeps the pool sorted and retains the newest
	// snapshot so late-window faults keep a nearby fork point.
	for i := 1; i < len(sp.snaps); i++ {
		if sp.snaps[i-1].win >= sp.snaps[i].win {
			t.Fatalf("pool unsorted after thinning: %d before %d", sp.snaps[i-1].win, sp.snaps[i].win)
		}
	}
	if last := sp.snaps[len(sp.snaps)-1].win; last != 120 {
		t.Errorf("newest snapshot evicted by thinning: last win = %d, want 120", last)
	}
}

// TestForkCampaignMatchesReplay is the outcome-identity half of the fork
// acceptance criteria: the same experiments run through a fork-server
// runner and a plain checkpoint-replay runner must classify identically —
// outcome class, fired flag, crash cause, injection PC, and (on the serial
// atomic model) committed instruction and tick totals — including
// experiments the fork server pruned early, of which there must be some.
func TestForkCampaignMatchesReplay(t *testing.T) {
	replay := piRunner(t)
	fork := piRunner(t)
	if err := fork.EnableFork(DefaultForkOptions()); err != nil {
		t.Fatal(err)
	}
	if !fork.ForkEnabled() {
		t.Fatal("EnableFork left fork mode off")
	}

	exps := GenerateUniform(24, GenConfig{WindowInsts: replay.WindowInsts, Seed: 11})
	for _, e := range exps {
		want := replay.Run(e)
		got := fork.Run(e)
		if got.Outcome != want.Outcome || got.Fired != want.Fired {
			t.Errorf("exp %d (%+v): fork %v/fired=%v, replay %v/fired=%v",
				e.ID, e.Faults[0], got.Outcome, got.Fired, want.Outcome, want.Fired)
		}
		if got.Insts != want.Insts {
			t.Errorf("exp %d: insts %d vs %d", e.ID, got.Insts, want.Insts)
		}
		if got.Ticks != want.Ticks {
			t.Errorf("exp %d: ticks %d vs %d", e.ID, got.Ticks, want.Ticks)
		}
		if got.CrashCause != want.CrashCause {
			t.Errorf("exp %d: crash cause %q vs %q", e.ID, got.CrashCause, want.CrashCause)
		}
		if got.InjPC != want.InjPC || got.InjPCValid != want.InjPCValid {
			t.Errorf("exp %d: injection PC %#x/%v vs %#x/%v", e.ID, got.InjPC, got.InjPCValid, want.InjPC, want.InjPCValid)
		}
	}

	st := fork.ForkStats()
	if st.Forks != uint64(len(exps)) {
		t.Errorf("forks = %d, want %d", st.Forks, len(exps))
	}
	if st.PrunedMasked+st.PrunedTwin == 0 {
		t.Error("no experiment was pruned early: the early exits under test never fired")
	}
	if st.SnapshotsTaken < 2 {
		t.Errorf("trunk took %d snapshots, want at least root + one mid-window", st.SnapshotsTaken)
	}
	if st.TrunkInsts == 0 {
		t.Error("trunk completion instruction count missing")
	}
}

// TestForkPoolMatchesSerialReplay runs the concurrent path: a pool of
// fork-server workers sharing one snapshot pool must reproduce the
// serial replay tally exactly.
func TestForkPoolMatchesSerialReplay(t *testing.T) {
	replay := piRunner(t)
	pool, err := NewPool(replay.Workload, 3, RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.EnableFork(DefaultForkOptions()); err != nil {
		t.Fatal(err)
	}
	exps := GenerateUniform(18, GenConfig{WindowInsts: replay.WindowInsts, Seed: 5})
	results := pool.RunAll(exps)
	for _, e := range exps {
		want := replay.Run(e)
		got := results[e.ID]
		if got.ID != e.ID {
			t.Fatalf("result order broken: got ID %d at slot %d", got.ID, e.ID)
		}
		if got.Outcome != want.Outcome || got.Fired != want.Fired {
			t.Errorf("exp %d: pool fork %v/fired=%v, serial replay %v/fired=%v",
				e.ID, got.Outcome, got.Fired, want.Outcome, want.Fired)
		}
	}
	if st := pool.ForkStats(); st.Forks != uint64(len(exps)) {
		t.Errorf("pool fork count = %d, want %d", st.Forks, len(exps))
	}
}

// TestForkObservedRunnersNeverPrune: per-PC profiles, taint reports and
// post-mortems cover the whole run, so an observed fork runner must run
// every experiment out — no early exit, not even a twin check.
func TestForkObservedRunnersNeverPrune(t *testing.T) {
	for name, observe := range map[string]func(*sim.Config){
		"profiler": func(c *sim.Config) { c.EnableProfiler = true },
		"taint":    func(c *sim.Config) { c.EnableTaint = true },
		"flight":   func(c *sim.Config) { c.EnableFlight = true },
	} {
		fork := observedPiRunner(t, observe)
		if err := fork.EnableFork(DefaultForkOptions()); err != nil {
			t.Fatal(err)
		}
		for _, e := range GenerateUniform(6, GenConfig{WindowInsts: fork.WindowInsts, Seed: 7}) {
			fork.Run(e)
		}
		if st := fork.ForkStats(); st.PrunedMasked != 0 || st.PrunedTwin != 0 || st.TwinChecks != 0 {
			t.Errorf("%s runner pruned: %d masked, %d twin, %d twin checks", name, st.PrunedMasked, st.PrunedTwin, st.TwinChecks)
		}
	}
}
