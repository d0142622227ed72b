package campaign

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestWalkCostLinear pins a trigger walk's cost to its members. With one
// snapshot the whole corpus is one walk; with 256 every walk has a few
// members. The bytes allocated per experiment must stay within 1.5x
// across the two, so no member pays for the walk's size.
func TestWalkCostLinear(t *testing.T) {
	w := workloads.MonteCarloPI(workloads.ScaleTest)
	const n = 400
	perExp := func(snapshots int) (bytes float64, walks uint64) {
		pool, err := NewPool(w, 1, RunnerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.EnableFork(ForkOptions{Snapshots: snapshots}); err != nil {
			t.Fatal(err)
		}
		exps := GenerateUniform(n, GenConfig{WindowInsts: pool.Runner().WindowInsts, Seed: 7})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		pool.RunAll(exps)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n, pool.ForkStats().Walks
	}
	one, oneWalks := perExp(1)
	fine, fineWalks := perExp(256)
	t.Logf("bytes per experiment: %.0f in %d walks (1 snapshot), %.0f in %d walks (256 snapshots)",
		one, oneWalks, fine, fineWalks)
	if oneWalks > n/10 {
		t.Fatalf("%d walks for %d experiments with one snapshot: the corpus did not share a walk", oneWalks, n)
	}
	if one > 1.5*fine {
		t.Errorf("one walk allocates %.0f B per experiment, %.1fx the %.0f B of short walks: walk cost grows with walk size",
			one, one/fine, fine)
	}
}

// TestPreclassifiedObservable checks that a member decided at its pause
// explains itself: a fork.preclassified event naming the register and
// the struck commit on its trace, phases that tile its wall time, and
// the fork accounting and metrics counting it, not as a fork. It runs on
// the pipelined model, whose members are decided like atomic ones.
func TestPreclassifiedObservable(t *testing.T) {
	w := workloads.MonteCarloPI(workloads.ScaleTest)
	cfg := SimConfig(sim.ModelPipelined, 0)
	cfg.Metrics = obs.NewRegistry()
	pool, err := NewPool(w, 1, RunnerOptions{Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.EnableFork(DefaultForkOptions()); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpanRecorder()
	pool.Spans = rec
	exps := GenerateUniform(40, GenConfig{
		Locations:   []core.Location{core.LocIntReg, core.LocFloatReg},
		WindowInsts: pool.Runner().WindowInsts, Seed: 3,
	})
	decided := 0
	for _, res := range pool.RunAll(exps) {
		root := rec.TraceByID(res.TraceID).Root()
		for _, ev := range root.Events {
			if ev.Name != "fork.preclassified" {
				continue
			}
			decided++
			if ev.Attrs["reg"] == nil || ev.Attrs["commit"] == nil || ev.Attrs["rule"] != "unread" {
				t.Errorf("exp %d: preclassified event without register, commit or the unread rule: %v", res.ID, ev.Attrs)
			}
			if res.Outcome != OutcomeNonPropagated || !res.Fired || !res.InjPCValid {
				t.Errorf("exp %d: preclassified as %v fired=%v injPC valid=%v", res.ID, res.Outcome, res.Fired, res.InjPCValid)
			}
			checkPhaseTiling(t, fmt.Sprintf("exp %d", res.ID), res, forkTilingSlackNS)
		}
	}
	st := pool.ForkStats()
	if decided == 0 || uint64(decided) != st.Preclassified {
		t.Fatalf("%d preclassified events, ForkStats.Preclassified %d", decided, st.Preclassified)
	}
	metrics := map[string]float64{}
	for _, m := range cfg.Metrics.Snapshot() {
		metrics[m.Name] = m.Value
	}
	if got := metrics["campaign.fork.preclassified"]; got != float64(st.Preclassified) {
		t.Errorf("campaign.fork.preclassified = %v, want %d", got, st.Preclassified)
	}
	if got := metrics["campaign.fork.forks"]; got != float64(st.Forks) || st.Forks+st.Preclassified > uint64(len(exps)) {
		t.Errorf("campaign.fork.forks = %v, ForkStats.Forks %d: forks and decided members exceed %d experiments",
			got, st.Forks, len(exps))
	}
}
