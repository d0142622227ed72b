package now

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// MatchLocal runs exps on a local runner built from the configuration
// every campaign runner uses and requires each remote result to carry
// the same outcome, fired flag, instruction count and tick count. It is
// the referee of the file-share tests and, exported, of the wire tests.
func MatchLocal(t *testing.T, model sim.ModelKind, exps []campaign.Experiment, remote []campaign.Result) {
	t.Helper()
	if len(remote) != len(exps) {
		t.Fatalf("remote results = %d of %d", len(remote), len(exps))
	}
	cfg := campaign.SimConfig(model, 0)
	local, err := campaign.NewRunner(workloads.MonteCarloPI(workloads.ScaleTest), campaign.RunnerOptions{Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, exp := range exps {
		got, want := remote[i], local.Run(exp)
		if got.Outcome != want.Outcome || got.Fired != want.Fired ||
			got.Insts != want.Insts || got.Ticks != want.Ticks {
			t.Errorf("experiment %d (%s): remote %v fired=%v insts=%d ticks=%d, local %v fired=%v insts=%d ticks=%d",
				i, exp.Faults[0], got.Outcome, got.Fired, got.Insts, got.Ticks,
				want.Outcome, want.Fired, want.Insts, want.Ticks)
		}
	}
}
