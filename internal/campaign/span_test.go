package campaign

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// forkTilingSlackNS floors the fork-mode tiling bound: a sub-millisecond
// forked experiment's 1% is a few microseconds, less than one scheduler
// hiccup between two clock reads.
const forkTilingSlackNS = 50_000

// checkPhaseTiling asserts that the experiment's phase durations sum to
// its wall time within max(1%, slackNS).
func checkPhaseTiling(t *testing.T, label string, res Result, slackNS int64) {
	t.Helper()
	var sum int64
	for _, ns := range res.PhaseNS {
		sum += ns
	}
	diff := res.WallNs - sum
	if diff < 0 {
		diff = -diff
	}
	if diff*100 > res.WallNs && diff > slackNS {
		t.Errorf("%s: phases sum %dns vs wall %dns (off %.2f%%), phases %v",
			label, sum, res.WallNs, 100*float64(diff)/float64(res.WallNs), res.PhaseNS)
	}
}

// TestExperimentPhasesTileWallTime: the acceptance criterion — for a
// traced experiment, the recorded phase durations must sum to the
// experiment's wall time within 1% (the phases are cut as adjacent
// slices of one timeline, so nothing is counted twice or lost).
func TestExperimentPhasesTileWallTime(t *testing.T) {
	r, err := NewRunner(workloads.MonteCarloPI(workloads.ScaleTest), RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpanRecorder()
	r.AttachSpans(rec, "r1")
	exps := GenerateUniform(5, GenConfig{WindowInsts: r.WindowInsts, Seed: 5})
	for _, exp := range exps {
		res := r.Run(exp)
		if res.TraceID == "" {
			t.Fatalf("experiment %d: no trace ID on result", exp.ID)
		}
		if res.WallNs <= 0 {
			t.Fatalf("experiment %d: wallNs = %d", exp.ID, res.WallNs)
		}
		checkPhaseTiling(t, fmt.Sprintf("experiment %d", exp.ID), res, 0)

		tr := rec.TraceByID(res.TraceID)
		if tr == nil {
			t.Fatalf("experiment %d: trace %s not recorded", exp.ID, res.TraceID)
		}
		root := tr.Root()
		if root == nil || root.Name != "experiment" {
			t.Fatalf("experiment %d: bad root %+v", exp.ID, root)
		}
		if got, _ := root.Attrs["outcome"].(string); got != res.Outcome.String() {
			t.Errorf("experiment %d: root outcome %q vs result %v", exp.ID, got, res.Outcome)
		}
		// Every phase span parents directly under the experiment root.
		phaseSpans := 0
		for i := range tr.Spans {
			sp := &tr.Spans[i]
			if sp.SpanID == root.SpanID {
				continue
			}
			if sp.ParentID != root.SpanID {
				t.Errorf("experiment %d: span %q parented under %s, want root", exp.ID, sp.Name, sp.ParentID)
			}
			phaseSpans++
		}
		if phaseSpans < 3 {
			t.Errorf("experiment %d: only %d phase spans", exp.ID, phaseSpans)
		}
		var buf bytes.Buffer
		if err := obs.WriteTraceJSONL(&buf, *tr); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ValidateSpansJSONL(&buf); err != nil {
			t.Errorf("experiment %d: invalid span tree: %v", exp.ID, err)
		}
	}
}

// TestForkModePhasesTileWallTime: same tiling criterion with a trunk
// (the fork is from a trunk snapshot, and the sim slices arrive via
// chunked RunUntil calls). Forked experiments take a fraction
// of a millisecond, so the 50 µs floor is what usually applies.
func TestForkModePhasesTileWallTime(t *testing.T) {
	r, err := NewRunner(workloads.MonteCarloPI(workloads.ScaleTest), RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableFork(DefaultForkOptions()); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpanRecorder()
	r.AttachSpans(rec, "r1")
	exps := GenerateUniform(5, GenConfig{WindowInsts: r.WindowInsts, Seed: 6})
	for _, exp := range exps {
		checkPhaseTiling(t, fmt.Sprintf("experiment %d (fork)", exp.ID), r.Run(exp), forkTilingSlackNS)
	}
}

// TestWalkEndsBeforeTriggers covers concludeAll: members of one walk
// whose triggers lie past the program's end. The walk's run is then every
// member's own run, start to finish, so each result must equal its
// replay's, and each member gets one trace of its own: fork and walk
// phases under the root, and only its own fault announced.
func TestWalkEndsBeforeTriggers(t *testing.T) {
	w := workloads.MonteCarloPI(workloads.ScaleTest)
	replay, err := NewRunner(w, RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(w, 1, RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.EnableFork(DefaultForkOptions()); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpanRecorder()
	pool.Spans = rec
	var exps []Experiment
	for i := 0; i < 3; i++ {
		exps = append(exps, Experiment{ID: i, Faults: []core.Fault{{
			Loc: core.LocIntReg, Reg: 6, Behavior: core.BehFlip, Bit: i,
			Base: core.TimeInst, When: 10*replay.WindowInsts + uint64(i), Occ: 1,
		}}})
	}
	got := pool.RunAll(exps)
	if st := pool.ForkStats(); st.Walks != 1 {
		t.Fatalf("%d walks for %d members, want one shared walk", st.Walks, len(exps))
	}
	traces := map[string]bool{}
	for _, e := range exps {
		g, want := got[e.ID], replay.Run(e)
		if g.Outcome != want.Outcome || g.Fired != want.Fired || g.Insts != want.Insts || g.Ticks != want.Ticks {
			t.Errorf("exp %d: walked %v fired=%v %d/%d, replay %v fired=%v %d/%d", e.ID,
				g.Outcome, g.Fired, g.Insts, g.Ticks, want.Outcome, want.Fired, want.Insts, want.Ticks)
		}
		if g.TraceID == "" || traces[g.TraceID] {
			t.Fatalf("exp %d: trace %q missing or shared", e.ID, g.TraceID)
		}
		traces[g.TraceID] = true
		tr := rec.TraceByID(g.TraceID)
		if tr == nil {
			t.Fatalf("exp %d: trace %s not recorded", e.ID, g.TraceID)
		}
		root := tr.Root()
		children := map[string]int{}
		for _, sp := range tr.Spans {
			if sp.ParentID == root.SpanID {
				children[sp.Name]++
			}
		}
		if children["fork"] != 1 || children["walk"] != 1 {
			t.Errorf("exp %d: root children %v, want one fork and one walk", e.ID, children)
		}
		var armed []any
		for _, ev := range root.Events {
			if ev.Name == "fault.armed" {
				armed = append(armed, ev.Attrs["fault"])
			}
		}
		if len(armed) != 1 || armed[0] != e.Faults[0].String() {
			t.Errorf("exp %d: fault.armed for %v, want only %q", e.ID, armed, e.Faults[0])
		}
	}
}
