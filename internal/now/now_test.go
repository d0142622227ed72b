package now

import (
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// startCampaign boots a master for a PI campaign with n experiments on
// the given model.
func startCampaign(t *testing.T, model sim.ModelKind, n int) (*Master, []campaign.Experiment) {
	t.Helper()
	// Window size must come from the master (it runs the golden sim).
	m, err := NewMaster("127.0.0.1:0", MasterConfig{
		Workload: "pi", Scale: workloads.ScaleTest, Model: model, Quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	exps := campaign.GenerateUniform(n, campaign.GenConfig{WindowInsts: m.WindowInsts(), Seed: 21})
	m.Close()
	// Restart with the experiment list (NewMaster needs them up front).
	m2, err := NewMaster("127.0.0.1:0", MasterConfig{
		Workload: "pi", Scale: workloads.ScaleTest, Model: model, Experiments: exps, Quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m2, exps
}

func TestSingleWorkerCampaign(t *testing.T) {
	m, exps := startCampaign(t, sim.ModelAtomic, 12)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := NewWorker(WorkerConfig{Addr: m.Addr(), Slots: 1, Name: "w0"})
		n, err := w.Run()
		if err != nil {
			t.Errorf("worker: %v", err)
		}
		if n != len(exps) {
			t.Errorf("worker completed %d of %d", n, len(exps))
		}
	}()
	results := m.Wait()
	wg.Wait()
	if len(results) != len(exps) {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.ID != i {
			t.Errorf("result %d has ID %d", i, r.ID)
		}
	}
}

func TestMultiWorkerMultiSlotCampaign(t *testing.T) {
	m, exps := startCampaign(t, sim.ModelAtomic, 20)
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWorker(WorkerConfig{Addr: m.Addr(), Slots: 2})
			n, err := w.Run()
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			counts[i] = n
		}(i)
	}
	results := m.Wait()
	wg.Wait()
	if len(results) != len(exps) {
		t.Fatalf("results = %d of %d", len(results), len(exps))
	}
	if counts[0]+counts[1] != len(exps) {
		t.Errorf("worker counts %v don't sum to %d", counts, len(exps))
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Logf("warning: unbalanced workers: %v", counts)
	}
}

// matchLocal runs exps on a local runner built from the configuration
// every NoW party uses and requires each remote result to carry the same
// outcome, fired flag, instruction count and tick count.
func matchLocal(t *testing.T, model sim.ModelKind, exps []campaign.Experiment, remote []campaign.Result) {
	t.Helper()
	if len(remote) != len(exps) {
		t.Fatalf("remote results = %d of %d", len(remote), len(exps))
	}
	cfg := simConfig(string(model), 0)
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

// TestNoWMatchesLocalResults: the distributed campaign must reproduce
// every experiment exactly as a local runner does — determinism across
// the wire (checkpoint shipping, JSON round trip, the worker's own golden
// continuation and watchdog) — on the atomic model and on the detailed
// model the worker's experiments switch to after its atomic golden pass.
func TestNoWMatchesLocalResults(t *testing.T) {
	for _, model := range []sim.ModelKind{sim.ModelAtomic, sim.ModelPipelined} {
		t.Run(string(model), func(t *testing.T) {
			m, exps := startCampaign(t, model, 10)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := NewWorker(WorkerConfig{Addr: m.Addr(), Slots: 2})
				if _, err := w.Run(); err != nil {
					t.Errorf("worker: %v", err)
				}
			}()
			remote := m.Wait()
			wg.Wait()
			matchLocal(t, model, exps, remote)
		})
	}
}

// TestWorkerDeathRequeues kills one connection mid-campaign and checks
// the campaign still completes.
func TestWorkerDeathRequeues(t *testing.T) {
	m, exps := startCampaign(t, sim.ModelAtomic, 8)

	// A misbehaving client: fetches one experiment and disconnects
	// without reporting a result.
	rawWorker := func() {
		w := NewWorker(WorkerConfig{Addr: m.Addr(), Slots: 1})
		_ = w
	}
	_ = rawWorker
	c, err := dialRaw(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.send(Message{Type: MsgHello, WorkerName: "flaky"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.recv(); err != nil { // welcome
		t.Fatal(err)
	}
	if err := c.send(Message{Type: MsgFetch}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.recv(); err != nil { // experiment assigned
		t.Fatal(err)
	}
	c.close() // dies holding the assignment

	go func() {
		w := NewWorker(WorkerConfig{Addr: m.Addr(), Slots: 1})
		if _, err := w.Run(); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	results := m.Wait()
	if len(results) != len(exps) {
		t.Fatalf("campaign incomplete after worker death: %d of %d", len(results), len(exps))
	}
}

func TestProtocolRejectsGarbage(t *testing.T) {
	m, _ := startCampaign(t, sim.ModelAtomic, 1)
	defer m.Close()
	c, err := dialRaw(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.send(Message{Type: MsgHello}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.recv(); err != nil {
		t.Fatal(err)
	}
	if err := c.send(Message{Type: "bogus"}); err != nil {
		t.Fatal(err)
	}
	reply, err := c.recv()
	if err == nil && reply.Type != MsgError {
		t.Errorf("expected error reply, got %+v", reply)
	}
	// Drain the campaign so the listener goroutine can finish.
	go func() {
		w := NewWorker(WorkerConfig{Addr: m.Addr(), Slots: 1})
		_, _ = w.Run()
	}()
	m.Wait()
}
