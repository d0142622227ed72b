package serv

import (
	"fmt"
	"net"
	"testing"

	"repro/internal/campaign"
	"repro/internal/now"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestExecutorsAgree is the one-spec-one-machine referee: a campaign
// description gives the same result for every experiment whether
// gemfi-campaign's pool, the service's local runners or a default NoW
// worker runs it, on every model and fork setting.
func TestExecutorsAgree(t *testing.T) {
	for _, wl := range []string{"pi", "canneal"} {
		for _, model := range []sim.ModelKind{sim.ModelAtomic, sim.ModelPipelined} {
			for _, fork := range []bool{false, true} {
				spec := CampaignSpec{Workload: wl, Model: string(model), N: 40, Seed: 7, Workers: 2, Fork: fork}
				t.Run(fmt.Sprintf("%s/%s/fork=%v", wl, model, fork), func(t *testing.T) {
					want := poolResults(t, spec)
					for _, ex := range []struct {
						name  string
						slots int
					}{{"service", 2}, {"now", -1}} {
						got := serviceResults(t, spec, ex.slots)
						if len(got) != len(want) {
							t.Fatalf("%s: %d results, pool %d", ex.name, len(got), len(want))
						}
						for _, g := range got {
							w, ok := want[g.ID]
							if !ok || g.Fault != w.Fault {
								t.Fatalf("%s: experiment %d (%s) not in the pool's plan", ex.name, g.ID, g.Fault)
							}
							if g.Outcome != w.Outcome || g.Fired != w.Fired || g.Insts != w.Insts ||
								g.Ticks != w.Ticks || g.InjPC != w.InjPC || g.InjPCValid != w.InjPCValid ||
								g.CrashCause != w.CrashCause {
								t.Errorf("%s: experiment %d (%s): %v fired=%v insts=%d ticks=%d pc=%#x/%v %q; pool %v fired=%v insts=%d ticks=%d pc=%#x/%v %q",
									ex.name, g.ID, g.Fault, g.Outcome, g.Fired, g.Insts, g.Ticks, g.InjPC, g.InjPCValid, g.CrashCause,
									w.Outcome, w.Fired, w.Insts, w.Ticks, w.InjPC, w.InjPCValid, w.CrashCause)
							}
						}
					}
				})
			}
		}
	}
}

// poolResults runs spec's uniform plan on a campaign.Pool built the way
// gemfi-campaign builds one, keyed by the ID the service gives the same
// experiment (it numbers its plan from 1).
func poolResults(t *testing.T, spec CampaignSpec) map[int]campaign.Result {
	t.Helper()
	w, err := workloads.ByName(spec.Workload, workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.SimConfig(sim.ModelKind(spec.Model), 0)
	pool, err := campaign.NewPool(w, spec.Workers, campaign.RunnerOptions{Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Fork {
		if err := pool.EnableFork(campaign.DefaultForkOptions()); err != nil {
			t.Fatal(err)
		}
	}
	exps := campaign.GenerateUniform(spec.N, campaign.GenConfig{WindowInsts: pool.Runner().WindowInsts, Seed: spec.Seed})
	out := make(map[int]campaign.Result, len(exps))
	for _, r := range pool.RunAll(exps) {
		out[r.ID+1] = r
	}
	return out
}

// serviceResults runs spec on a service with the given local slots. With
// none (slots < 0), one default NoW worker, started once the golden run
// has produced its checkpoint, runs every experiment.
func serviceResults(t *testing.T, spec CampaignSpec, slots int) []campaign.Result {
	t.Helper()
	s, err := New(Config{Dir: t.TempDir(), Slots: slots})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(waitBound)
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if slots < 0 {
		if !s.WaitPrepared(id, waitBound) {
			t.Fatal("campaign never finished its golden run")
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		s.ServeWorkers(ln)
		if _, err := now.NewWorker(now.WorkerConfig{Addr: ln.Addr().String(), Slots: 2}).Run(); err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if !s.Wait(id, waitBound) {
		t.Fatal("campaign did not finish")
	}
	c, _ := s.Campaign(id)
	if st := c.Status(); st.Phase != PhaseDone {
		t.Fatalf("campaign phase %s (%s)", st.Phase, st.Error)
	}
	return c.Results()
}
