package now

import (
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/workloads"
)

func counterValue(t *testing.T, r *obs.Registry, name string) float64 {
	t.Helper()
	for _, m := range r.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestWorkerExperimentTimeoutRetries pins the per-experiment timeout
// path: a timeout far below the experiment's runtime interrupts every
// attempt, the worker retries ExpRetries times, and the final result is
// reported as crashed/interrupted. Runtime at pi/ScaleSmall is ~40ms per
// experiment; the 4ms bound leaves an order of magnitude of margin on
// both sides (checkpoint restore is well under 1ms).
func TestWorkerExperimentTimeoutRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("ScaleSmall golden run in -short mode")
	}
	wl, err := workloads.ByName("pi", workloads.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := campaign.NewRunner(wl, campaign.RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exp := campaign.GenerateUniform(1, campaign.GenConfig{WindowInsts: runner.WindowInsts, Seed: 3})[0]

	// Baseline sanity: untimed, the experiment completes.
	if res := runner.Run(exp); res.CrashCause == campaign.CrashInterrupted {
		t.Fatalf("untimed run reported interrupted: %+v", res)
	}

	reg := obs.NewRegistry()
	w := NewWorker(WorkerConfig{
		Addr: "unused", ExpTimeout: 4 * time.Millisecond, ExpRetries: 2, Metrics: reg,
	})
	res := w.runExperiment(runner, exp, obs.SpanContext{})
	if res.Outcome != campaign.OutcomeCrashed || res.CrashCause != campaign.CrashInterrupted {
		t.Fatalf("result = %+v, want crashed/interrupted", res)
	}
	if got := counterValue(t, reg, "now.worker.timeouts"); got != 3 {
		t.Errorf("now.worker.timeouts = %g, want 3 (initial + 2 retries)", got)
	}
	if got := counterValue(t, reg, "now.worker.retries"); got != 2 {
		t.Errorf("now.worker.retries = %g, want 2", got)
	}

	// The runner survives interruption: a generous timeout completes.
	w2 := NewWorker(WorkerConfig{Addr: "unused", ExpTimeout: time.Minute, Metrics: reg})
	if res := w2.runExperiment(runner, exp, obs.SpanContext{}); res.CrashCause == campaign.CrashInterrupted {
		t.Fatalf("generous timeout still interrupted: %+v", res)
	}
}

// TestWorkerDialRetryBackoff: with nothing listening, the worker makes
// DialAttempts attempts (counting the retries) before reporting failure.
func TestWorkerDialRetryBackoff(t *testing.T) {
	reg := obs.NewRegistry()
	// 127.0.0.1:1 is reserved (tcpmux) and never bound in tests.
	w := NewWorker(WorkerConfig{
		Addr: "127.0.0.1:1", Slots: 1,
		DialAttempts: 3, DialBackoff: time.Millisecond, Metrics: reg,
	})
	if _, err := w.Run(); err == nil {
		t.Fatal("worker connected to a dead address")
	}
	if got := counterValue(t, reg, "now.worker.dial_retries"); got != 2 {
		t.Errorf("now.worker.dial_retries = %g, want 2", got)
	}
}
