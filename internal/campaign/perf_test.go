package campaign

import (
	"encoding/json"
	"testing"

	"repro/internal/workloads"
)

// TestRunFig7SmallStructure runs every paper workload on the pipelined
// model with fault injection off and on; RunFig7 fails if any run does.
func TestRunFig7SmallStructure(t *testing.T) {
	ws := workloads.All(workloads.ScaleTest)
	rep, err := RunFig7(Fig7Config{Workloads: ws, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(ws) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(ws))
	}
	for _, row := range rep.Rows {
		if row.VanillaSec <= 0 || row.GemFISec <= 0 {
			t.Errorf("timings missing: %+v", row)
		}
		if row.CILowPct > row.OverheadPct || row.CIHighPct < row.OverheadPct {
			t.Errorf("CI does not bracket the point estimate: %+v", row)
		}
	}
	if rep.String() == "" {
		t.Error("empty rendering")
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report not JSON-serializable: %v", err)
	}
}

func TestRunFig8SmallStructure(t *testing.T) {
	rep, err := RunFig8(Fig8Config{
		Workloads:   []*workloads.Workload{workloads.MonteCarloPI(workloads.ScaleTest)},
		Experiments: 4,
		Workers:     2,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	row := rep.Rows[0]
	if row.BaselineSec <= 0 || row.CheckpointSec <= 0 || row.ParallelSec <= 0 {
		t.Errorf("timings missing: %+v", row)
	}
	// The defining claim: skipping boot+init makes experiments cheaper.
	if row.CheckpointSpeedup <= 1 {
		t.Errorf("checkpoint speedup = %v, want > 1 (baseline %v vs ckpt %v)",
			row.CheckpointSpeedup, row.BaselineSec, row.CheckpointSec)
	}
	if rep.String() == "" {
		t.Error("empty rendering")
	}
}
