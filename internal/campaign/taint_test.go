package campaign

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/taint"
	"repro/internal/workloads"
)

// runTaintCampaign executes n uniform experiments on one runner with
// taint tracking attached and returns, per experiment, the classified
// result paired with its full propagation report.
func runTaintCampaign(t *testing.T, n int, seed int64) ([]Result, []*taint.PropReport) {
	t.Helper()
	r := observedPiRunner(t, func(c *sim.Config) { c.EnableTaint = true })
	if r.Taint() == nil {
		t.Fatal("EnableTaint gave the runner no tracker")
	}
	if r.TaintGolden() == nil {
		t.Fatal("runner did not capture the golden final state")
	}
	exps := GenerateUniform(n, GenConfig{WindowInsts: r.WindowInsts, Seed: seed})
	results := make([]Result, 0, n)
	reports := make([]*taint.PropReport, 0, n)
	for _, exp := range exps {
		res := r.Run(exp)
		rep, _ := r.LastTaintReport()
		if rep == nil {
			t.Fatalf("experiment %d produced no propagation report", exp.ID)
		}
		if res.Prop == nil {
			t.Fatalf("experiment %d: Result.Prop not populated", exp.ID)
		}
		if res.Prop.Verdict != rep.Verdict {
			t.Fatalf("experiment %d: summary verdict %s != report verdict %s",
				exp.ID, res.Prop.Verdict, rep.Verdict)
		}
		results = append(results, res)
		reports = append(reports, rep)
	}
	return results, reports
}

// TestTaintExplainsOutcomes is the acceptance check that the taint
// verdict explains — not merely accompanies — the campaign's outcome
// classification:
//
//   - Non-Propagated runs must never carry a propagation verdict
//     (reached-output/reached-crash), and at least one must be fully
//     explained as masked (overwritten or logically) with a golden diff
//     of zero.
//   - Every SDC run's DAG must contain a path from an injection node to
//     an output or final-state node (or record a control divergence,
//     where wrong-path execution rather than wrong data corrupted the
//     output), and at least one SDC must be seen.
//   - Every crashed run whose fault fired must carry reached-crash.
func TestTaintExplainsOutcomes(t *testing.T) {
	results, reports := runTaintCampaign(t, 60, 3)

	var sawMaskedNonProp, sawSDC, sawCrash bool
	for i, res := range results {
		rep := reports[i]
		switch res.Outcome {
		case OutcomeNonPropagated:
			if rep.Verdict == taint.VerdictReachedOutput || rep.Verdict == taint.VerdictReachedCrash {
				t.Errorf("exp %d: non-propagated outcome but verdict %s", res.ID, rep.Verdict)
			}
			if (rep.Verdict == taint.VerdictMaskedOverwritten || rep.Verdict == taint.VerdictMaskedLogically) &&
				rep.GoldenDiff.Total() == 0 {
				sawMaskedNonProp = true
			}
		case OutcomeSDC:
			sawSDC = true
			explained := rep.HasPath(taint.NodeInject, taint.NodeOutput) ||
				rep.HasPath(taint.NodeInject, taint.NodeFinal) ||
				rep.ControlDivergences > 0
			if !explained {
				t.Errorf("exp %d: SDC with no DAG path from injection to output/final and no control divergence (verdict %s, %d nodes)",
					res.ID, rep.Verdict, len(rep.Nodes))
			}
		case OutcomeCrashed:
			if res.Fired && rep.Verdict != taint.VerdictReachedCrash {
				t.Errorf("exp %d: crash with a fired fault but verdict %s", res.ID, rep.Verdict)
			}
			if res.Fired {
				sawCrash = true
			}
		}
	}
	if !sawMaskedNonProp {
		t.Error("campaign produced no non-propagated run explained as masked with golden diff zero")
	}
	if !sawSDC {
		t.Error("campaign produced no SDC run to explain (enlarge n or change seed)")
	}
	if !sawCrash {
		t.Error("campaign produced no fired crash to explain (enlarge n or change seed)")
	}
}

// TestTaintSummaryOnPoolResults checks the pool path: EnableTaint gives
// every worker its own tracker, Prop summaries land on all completed
// results, and TaintReport returns the freshest report.
func TestTaintSummaryOnPoolResults(t *testing.T) {
	cfg := defaultCampaignConfig()
	cfg.EnableTaint = true
	pool, err := NewPool(workloads.MonteCarloPI(workloads.ScaleTest), 4, RunnerOptions{Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	exps := GenerateUniform(16, GenConfig{WindowInsts: pool.Runner().WindowInsts, Seed: 7})
	results := pool.RunAll(exps)
	for _, res := range results {
		if res.Prop == nil {
			t.Fatalf("experiment %d: no propagation summary on pool result", res.ID)
		}
	}
	if pool.TaintReport() == nil {
		t.Error("pool.TaintReport returned nil after a finished campaign")
	}

	// The per-PC attribution must surface propagation stats.
	rows, _ := AttributeByPC(results, nil)
	if len(rows) == 0 {
		t.Fatal("no attributed rows")
	}
	withTaint := 0
	for _, row := range rows {
		withTaint += row.TaintN
	}
	if withTaint == 0 {
		t.Error("no PC row carries propagation stats")
	}
}
