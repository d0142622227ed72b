package now_test

// These tests drive NoW workers against their master, the campaign
// service, hosting one campaign with no local slots so every experiment
// crosses the wire.

import (
	"bufio"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/now"
	"repro/internal/obs"
	"repro/internal/serv"
	"repro/internal/sim"
)

const waitBound = 180 * time.Second

// startCampaign hosts a uniform PI campaign of n experiments on a service
// that runs nothing locally, and serves workers once the golden run has
// produced the checkpoint. It returns the service, the campaign ID and
// the address workers dial.
func startCampaign(t *testing.T, cfg serv.Config, model sim.ModelKind, n int) (*serv.Service, string, string) {
	t.Helper()
	cfg.Dir, cfg.Slots = t.TempDir(), -1
	s, err := serv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(time.Second) })
	id, err := s.Submit(serv.CampaignSpec{Workload: "pi", Model: string(model), N: n, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if !s.WaitPrepared(id, waitBound) {
		t.Fatal("campaign never finished its golden run")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	s.ServeWorkers(ln)
	return s, id, ln.Addr().String()
}

// waitResults waits for the campaign to finish and returns its results
// in planned order.
func waitResults(t *testing.T, s *serv.Service, id string) []campaign.Result {
	t.Helper()
	if !s.Wait(id, waitBound) {
		t.Fatal("campaign did not finish")
	}
	c, _ := s.Campaign(id)
	if st := c.Status(); st.Phase != serv.PhaseDone {
		t.Fatalf("campaign phase %s (%s)", st.Phase, st.Error)
	}
	return c.Results()
}

// runWorker runs a worker to completion in the background.
func runWorker(t *testing.T, wg *sync.WaitGroup, cfg now.WorkerConfig, n *int) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		done, err := now.NewWorker(cfg).Run()
		if err != nil {
			t.Errorf("worker %s: %v", cfg.Name, err)
		}
		if n != nil {
			*n = done
		}
	}()
}

// rawClient speaks the wire protocol by hand, as a misbehaving worker.
type rawClient struct {
	c  net.Conn
	sc *bufio.Scanner
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 64<<10), 256<<20)
	return &rawClient{c: c, sc: sc}
}

// call sends one message and reads the reply.
func (rc *rawClient) call(t *testing.T, m now.Message) now.Message {
	t.Helper()
	b, _ := json.Marshal(m)
	if _, err := rc.c.Write(append(b, '\n')); err != nil {
		t.Fatal(err)
	}
	if !rc.sc.Scan() {
		t.Fatalf("no reply to %s: %v", m.Type, rc.sc.Err())
	}
	var reply now.Message
	if err := json.Unmarshal(rc.sc.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// takeAndDie completes the handshake, takes one experiment and
// disconnects without reporting it; it waits until the service has
// requeued the experiment and returns the assignment.
func takeAndDie(t *testing.T, addr string, reg *obs.Registry) now.Message {
	t.Helper()
	rc := dialRaw(t, addr)
	if wel := rc.call(t, now.Message{Type: now.MsgHello, WorkerName: "flaky"}); wel.Type != now.MsgWelcome {
		t.Fatalf("handshake answered %q", wel.Type)
	}
	assigned := rc.call(t, now.Message{Type: now.MsgFetch})
	if assigned.Type != now.MsgExperiment || assigned.Experiment == nil {
		t.Fatalf("fetch answered %+v", assigned)
	}
	_ = rc.c.Close()
	requeued := reg.Counter("serv.now.requeued")
	for deadline := time.Now().Add(waitBound); requeued.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("dead worker's experiment never requeued")
		}
		time.Sleep(time.Millisecond)
	}
	return assigned
}

func TestSingleWorkerCampaign(t *testing.T) {
	s, id, addr := startCampaign(t, serv.Config{}, sim.ModelAtomic, 12)
	var wg sync.WaitGroup
	var n int
	runWorker(t, &wg, now.WorkerConfig{Addr: addr, Slots: 1, Name: "w0"}, &n)
	results := waitResults(t, s, id)
	wg.Wait()
	if len(results) != 12 || n != 12 {
		t.Fatalf("results = %d, worker completed %d, want 12", len(results), n)
	}
	for i, r := range results {
		if r.ID != i+1 {
			t.Errorf("result %d has ID %d", i, r.ID)
		}
		if r.Worker != "w0/slot0" {
			t.Errorf("result %d ran on %q", r.ID, r.Worker)
		}
	}
}

func TestMultiWorkerMultiSlotCampaign(t *testing.T) {
	s, id, addr := startCampaign(t, serv.Config{}, sim.ModelAtomic, 20)
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for i := range counts {
		runWorker(t, &wg, now.WorkerConfig{Addr: addr, Slots: 2}, &counts[i])
	}
	results := waitResults(t, s, id)
	wg.Wait()
	if len(results) != 20 {
		t.Fatalf("results = %d of 20", len(results))
	}
	if counts[0]+counts[1] != 20 {
		t.Errorf("worker counts %v don't sum to 20", counts)
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Logf("warning: unbalanced workers: %v", counts)
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
			s, id, addr := startCampaign(t, serv.Config{}, model, 10)
			var wg sync.WaitGroup
			runWorker(t, &wg, now.WorkerConfig{Addr: addr, Slots: 2}, nil)
			remote := waitResults(t, s, id)
			wg.Wait()

			c, _ := s.Campaign(id)
			exps := campaign.GenerateUniform(10, campaign.GenConfig{WindowInsts: c.Status().WindowInsts, Seed: 21})
			now.MatchLocal(t, model, exps, remote)
		})
	}
}

// TestWorkerDeathRequeues: a client that dies holding an assignment does
// not stall the campaign; a healthy worker finishes every experiment.
func TestWorkerDeathRequeues(t *testing.T) {
	reg := obs.NewRegistry()
	s, id, addr := startCampaign(t, serv.Config{Metrics: reg}, sim.ModelAtomic, 8)
	takeAndDie(t, addr, reg)

	var wg sync.WaitGroup
	runWorker(t, &wg, now.WorkerConfig{Addr: addr, Slots: 1}, nil)
	results := waitResults(t, s, id)
	wg.Wait()
	if len(results) != 8 {
		t.Fatalf("campaign incomplete after worker death: %d of 8", len(results))
	}
}

// TestMasterDisconnectRequeuedExactlyOnce is the worker-disconnect
// contract: a client that dies holding an assignment gets that
// experiment requeued exactly once, the campaign still yields one result
// per experiment, and nothing is double-counted.
func TestMasterDisconnectRequeuedExactlyOnce(t *testing.T) {
	reg := obs.NewRegistry()
	s, id, addr := startCampaign(t, serv.Config{Metrics: reg}, sim.ModelAtomic, 8)
	takeAndDie(t, addr, reg)

	var wg sync.WaitGroup
	runWorker(t, &wg, now.WorkerConfig{Addr: addr, Slots: 1, Metrics: reg}, nil)
	results := waitResults(t, s, id)
	wg.Wait()

	seen := map[int]bool{}
	for _, r := range results {
		if seen[r.ID] {
			t.Errorf("experiment %d counted twice", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != 8 {
		t.Fatalf("campaign has %d distinct results, want 8", len(seen))
	}
	if got := reg.Counter("serv.now.requeued").Value(); got != 1 {
		t.Errorf("serv.now.requeued = %d, want 1", got)
	}
	// The healthy worker ran every experiment, the requeued one included.
	if got := reg.Counter("now.worker.completed").Value(); got != 8 {
		t.Errorf("now.worker.completed = %d, want 8", got)
	}
}

// TestWorkerHeartbeats: a heartbeating worker is visible in the master's
// telemetry, even when its experiments all finish inside the first
// interval.
func TestWorkerHeartbeats(t *testing.T) {
	reg := obs.NewRegistry()
	s, id, addr := startCampaign(t, serv.Config{Metrics: reg}, sim.ModelAtomic, 12)
	var wg sync.WaitGroup
	runWorker(t, &wg, now.WorkerConfig{Addr: addr, Slots: 1, Name: "hb",
		Heartbeat: time.Millisecond, Metrics: reg}, nil)
	if results := waitResults(t, s, id); len(results) != 12 {
		t.Fatalf("campaign incomplete: %d of 12", len(results))
	}
	wg.Wait()
	if got := reg.Counter("serv.now.heartbeats").Value(); got < 1 {
		t.Errorf("serv.now.heartbeats = %d, want >= 1", got)
	}
}

// TestProtocolRejectsGarbage: an unknown message type is answered with an
// error, and a worker connecting after the campaign finished is told it
// is done rather than failing its handshake.
func TestProtocolRejectsGarbage(t *testing.T) {
	s, id, addr := startCampaign(t, serv.Config{}, sim.ModelAtomic, 2)
	rc := dialRaw(t, addr)
	defer rc.c.Close()
	if wel := rc.call(t, now.Message{Type: now.MsgHello}); wel.Type != now.MsgWelcome {
		t.Fatalf("handshake answered %q", wel.Type)
	}
	if reply := rc.call(t, now.Message{Type: "bogus"}); reply.Type != now.MsgError {
		t.Errorf("expected error reply, got %+v", reply)
	}

	var wg sync.WaitGroup
	runWorker(t, &wg, now.WorkerConfig{Addr: addr, Slots: 1}, nil)
	waitResults(t, s, id)
	wg.Wait()
	var n int
	runWorker(t, &wg, now.WorkerConfig{Addr: addr, Slots: 2}, &n)
	wg.Wait()
	if n != 0 {
		t.Errorf("late worker completed %d experiments", n)
	}
}
