package now

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// prepareShare builds a PI campaign share with n experiments on the
// given model.
func prepareShare(t *testing.T, model sim.ModelKind, n int) (string, []campaign.Experiment) {
	t.Helper()
	dir := t.TempDir()
	window, err := PrepareShare(dir, ShareConfig{Workload: "pi", Scale: workloads.ScaleTest, Model: model})
	if err != nil || window == 0 {
		t.Fatalf("window: %d %v", window, err)
	}
	exps := campaign.GenerateUniform(n, campaign.GenConfig{WindowInsts: window, Seed: 31})
	if err := WriteExperiments(dir, exps); err != nil {
		t.Fatal(err)
	}
	return dir, exps
}

func TestShareLayout(t *testing.T) {
	dir, exps := prepareShare(t, sim.ModelAtomic, 5)
	for _, f := range []string{"meta.json", "checkpoint.gob"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "experiments"))
	if err != nil || len(entries) != len(exps) {
		t.Fatalf("experiment files: %d, %v", len(entries), err)
	}
	// The fault files are in the paper's Listing-1 text format.
	b, err := os.ReadFile(filepath.Join(dir, "experiments", entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "InjectedFault") || !strings.Contains(string(b), "occ:") {
		t.Errorf("fault file not in Listing-1 format: %q", b)
	}
}

func TestFileWorkerProcessesAll(t *testing.T) {
	dir, exps := prepareShare(t, sim.ModelAtomic, 6)
	n, err := FileWorker(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(exps) {
		t.Fatalf("worker completed %d of %d", n, len(exps))
	}
	results, err := CollectResults(dir, len(exps), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.ID != i {
			t.Errorf("result %d has ID %d", i, r.ID)
		}
	}
}

func TestConcurrentFileWorkersSplitTheQueue(t *testing.T) {
	dir, exps := prepareShare(t, sim.ModelAtomic, 10)
	var wg sync.WaitGroup
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := FileWorker(dir)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			counts[i] = n
		}(i)
	}
	wg.Wait()
	total := counts[0] + counts[1] + counts[2]
	if total != len(exps) {
		t.Fatalf("workers completed %v = %d, want %d", counts, total, len(exps))
	}
	results, err := CollectResults(dir, len(exps), time.Second)
	if err != nil || len(results) != len(exps) {
		t.Fatalf("results: %d %v", len(results), err)
	}
}

// TestFileShareMatchesLocal: a file-share worker, which rebuilds the
// golden outputs and the watchdog from the shared checkpoint and
// meta.json, must reproduce a local runner's results on the atomic and
// the detailed model.
func TestFileShareMatchesLocal(t *testing.T) {
	for _, model := range []sim.ModelKind{sim.ModelAtomic, sim.ModelPipelined} {
		t.Run(string(model), func(t *testing.T) {
			dir, exps := prepareShare(t, model, 6)
			if _, err := FileWorker(dir); err != nil {
				t.Fatal(err)
			}
			shared, err := CollectResults(dir, len(exps), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			MatchLocal(t, model, exps, shared)
		})
	}
}

func TestRequeueStaleClaims(t *testing.T) {
	dir, exps := prepareShare(t, sim.ModelAtomic, 4)
	// Simulate a dead workstation: claim two experiments by hand and
	// never produce results.
	for _, name := range []string{"000000.fault", "000001.fault"} {
		if err := os.Rename(filepath.Join(dir, "experiments", name),
			filepath.Join(dir, "claims", name)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := RequeueStaleClaims(dir)
	if err != nil || n != 2 {
		t.Fatalf("requeued %d, %v", n, err)
	}
	if _, err := FileWorker(dir); err != nil {
		t.Fatal(err)
	}
	results, err := CollectResults(dir, len(exps), time.Second)
	if err != nil || len(results) != len(exps) {
		t.Fatalf("campaign incomplete after requeue: %d %v", len(results), err)
	}
}

func TestCollectTimeout(t *testing.T) {
	dir, _ := prepareShare(t, sim.ModelAtomic, 3)
	if _, err := CollectResults(dir, 3, 50*time.Millisecond); err == nil {
		t.Error("expected timeout with no workers running")
	}
}
