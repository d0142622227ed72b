package campaign

import (
	"testing"

	"repro/internal/sim"
)

// TestMemoForkMatchesReplay is the memoization identity test: running a
// batch that contains duplicated experiments through a memoizing fork
// runner must produce memo hits, and every result — including the
// memoized ones — must classify identically to a plain checkpoint-replay
// runner, down to instruction and tick totals.
func TestMemoForkMatchesReplay(t *testing.T) {
	replay := piRunner(t)
	fork := piRunner(t)
	opts := DefaultForkOptions()
	// Twin pruning off: it would close converged propagated runs before
	// the memo can record or replay them, hiding the path under test.
	opts.TwinCheck = false
	if !opts.Memoize {
		t.Fatal("DefaultForkOptions no longer enables memoization")
	}
	if err := fork.EnableFork(opts); err != nil {
		t.Fatal(err)
	}

	// Duplicate every experiment: the second copy reaches the exact same
	// post-resolve state at the same prune checkpoint, so each propagated
	// first-copy verdict must be served from the memo for the second.
	base := GenerateUniform(16, GenConfig{WindowInsts: replay.WindowInsts, Seed: 23})
	exps := make([]Experiment, 0, 2*len(base))
	for _, e := range base {
		exps = append(exps, e)
		dup := e
		dup.ID = len(base) + e.ID
		exps = append(exps, dup)
	}

	sawPropagated := false
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
		if want.Outcome != OutcomeNonPropagated {
			sawPropagated = true
		}
	}

	st := fork.ForkStats()
	if st.MemoEntries == 0 {
		t.Fatal("no verdicts were memoized — the memo key point never fired")
	}
	if st.MemoHits == 0 {
		t.Fatal("duplicated experiments produced no memo hits")
	}
	if !sawPropagated {
		t.Log("warning: batch had no propagated outcomes; memo path weakly exercised")
	}
}

// TestMemoSkipsInstrumentedRunners: per-PC profiles, taint reports and
// post-mortems cover the whole run, so an observed runner must never
// memoize or serve memoized verdicts.
func TestMemoSkipsInstrumentedRunners(t *testing.T) {
	for name, observe := range map[string]func(*sim.Config){
		"profiler": func(c *sim.Config) { c.EnableProfiler = true },
		"taint":    func(c *sim.Config) { c.EnableTaint = true },
		"flight":   func(c *sim.Config) { c.EnableFlight = true },
	} {
		fork := observedPiRunner(t, observe)
		if err := fork.EnableFork(DefaultForkOptions()); err != nil {
			t.Fatal(err)
		}
		base := GenerateUniform(6, GenConfig{WindowInsts: fork.WindowInsts, Seed: 7})
		for _, e := range base {
			fork.Run(e)
			fork.Run(e) // duplicate: would hit the memo if it were active
		}
		if st := fork.ForkStats(); st.MemoEntries != 0 || st.MemoHits != 0 {
			t.Fatalf("%s runner used the memo: %d entries, %d hits", name, st.MemoEntries, st.MemoHits)
		}
	}
}
