package serv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/now"
	"repro/internal/sim"
	"repro/internal/workloads"
)

const waitBound = 180 * time.Second

// directResults runs the service's uniform experiment plan by hand — the
// conformance referee for every service-path test.
func directResults(t *testing.T, spec CampaignSpec) ([]campaign.Result, uint64) {
	t.Helper()
	scale, err := spec.scale()
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName(spec.Workload, scale)
	if err != nil {
		t.Fatal(err)
	}
	model, err := spec.model()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Model: model, EnableFI: true, MaxInsts: spec.MaxInsts}
	r, err := campaign.NewRunner(w, campaign.RunnerOptions{Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	exps := campaign.GenerateUniform(spec.N, campaign.GenConfig{
		WindowInsts: r.WindowInsts, Seed: spec.Seed,
	})
	out := make([]campaign.Result, 0, len(exps))
	for _, e := range exps {
		out = append(out, r.Run(e))
	}
	return out, r.WindowInsts
}

// TestServiceUniformMatchesDirect: a service-hosted uniform campaign
// classifies exactly the experiments (and outcomes) a by-hand campaign
// with the same seed does.
func TestServiceUniformMatchesDirect(t *testing.T) {
	spec := CampaignSpec{Workload: "pi", N: 10, Seed: 41, Workers: 2}
	want, _ := directResults(t, spec)

	s, err := New(Config{Dir: t.TempDir(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Wait(id, waitBound) {
		t.Fatal("campaign did not finish")
	}
	c, _ := s.Campaign(id)
	st := c.Status()
	if st.Phase != PhaseDone {
		t.Fatalf("phase %s (err %s)", st.Phase, st.Error)
	}
	got := c.Results()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	// Service IDs are 1-based (renumbered by the sampler); the generation
	// order is identical, so got[i] corresponds to want[i].
	for i := range got {
		if got[i].ID != i+1 {
			t.Fatalf("result %d has ID %d", i, got[i].ID)
		}
		if got[i].Outcome != want[i].Outcome || got[i].Fault != want[i].Fault {
			t.Fatalf("result %d: service %v/%v, direct %v/%v",
				i, got[i].Outcome, got[i].Fault, want[i].Outcome, want[i].Fault)
		}
	}
}

// TestServiceCrashResume is the exactly-once tentpole test: a service is
// abandoned (no drain, no fsync — the in-process SIGKILL analog) partway
// through a campaign; a second service on the same journal finishes it;
// the final ledger is experiment-for-experiment identical to an
// uninterrupted reference, with no double-counted IDs.
func TestServiceCrashResume(t *testing.T) {
	spec := CampaignSpec{Workload: "pi", N: 18, Seed: 5}
	want, _ := directResults(t, spec)

	dir := t.TempDir()
	s1, err := New(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Crash as soon as some — but not all — results are in.
	deadline := time.Now().Add(waitBound)
	for {
		c, _ := s1.Campaign(id)
		if st := c.Status(); st.Done >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never made progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Close()

	s2, err := New(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(time.Second)
	if !s2.Wait(id, waitBound) {
		t.Fatal("resumed campaign did not finish")
	}
	c, ok := s2.Campaign(id)
	if !ok {
		t.Fatal("campaign lost across restart")
	}
	st := c.Status()
	if st.Phase != PhaseDone {
		t.Fatalf("resumed phase %s (err %s)", st.Phase, st.Error)
	}
	got := c.Results()
	if len(got) != spec.N {
		t.Fatalf("resumed campaign has %d results, want %d", len(got), spec.N)
	}
	seen := map[int]bool{}
	for i, r := range got {
		if seen[r.ID] {
			t.Fatalf("experiment %d double-counted", r.ID)
		}
		seen[r.ID] = true
		if r.Outcome != want[i].Outcome {
			t.Fatalf("experiment %d: resumed %v, reference %v", r.ID, r.Outcome, want[i].Outcome)
		}
	}
	gotTally := campaign.TallyOf(got)
	wantTally := campaign.TallyOf(want)
	for _, o := range campaign.Outcomes() {
		if gotTally[o] != wantTally[o] {
			t.Fatalf("tally mismatch at %v: resumed %d, reference %d", o, gotTally[o], wantTally[o])
		}
	}

	// The durable ledger agrees: exactly N results journaled, no more.
	if err := s2.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	_, st3, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := st3.Camps[id]
	if p == nil || len(p.Results) != spec.N || !p.Done {
		t.Fatalf("journal ledger wrong: %+v", p)
	}
}

// TestServiceAdaptiveCampaign: the adaptive sampler drives a campaign to
// its budget in multiple batches, with per-stratum accounting that sums
// to the budget.
func TestServiceAdaptiveCampaign(t *testing.T) {
	spec := CampaignSpec{
		Workload: "pi", N: 24, Seed: 9,
		Sampling: SampleAdaptive, Strata: 4, Batch: 8, Workers: 2,
	}
	s, err := New(Config{Dir: t.TempDir(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Wait(id, waitBound) {
		t.Fatal("campaign did not finish")
	}
	c, _ := s.Campaign(id)
	st := c.Status()
	if st.Phase != PhaseDone {
		t.Fatalf("phase %s (err %s)", st.Phase, st.Error)
	}
	if st.Done != spec.N {
		t.Fatalf("done %d, want %d", st.Done, spec.N)
	}
	if st.Batches < 2 {
		t.Fatalf("adaptive campaign planned %d batches, want several", st.Batches)
	}
	rep := c.VulnReport()
	if len(rep.Strata) != spec.Strata {
		t.Fatalf("report has %d strata, want %d", len(rep.Strata), spec.Strata)
	}
	sampled := 0
	for _, sr := range rep.Strata {
		sampled += sr.Sampled
		if sr.Sampled == 0 && sr.CIWidth != 1 {
			// Unsampled strata carry maximal uncertainty by definition.
			t.Fatalf("unsampled stratum [%d,%d] has width %v, want 1", sr.Lo, sr.Hi, sr.CIWidth)
		}
	}
	if sampled != spec.N {
		t.Fatalf("strata account %d samples, want %d", sampled, spec.N)
	}
	if rep.AggCIWidth <= 0 {
		t.Fatal("aggregate interval missing")
	}
}

// TestAdaptiveNoWiderThanUniform is the sampler's accuracy claim: on the
// same budget, adaptive importance sampling sends experiments where the
// uncertainty is, so on every paper workload its population-weighted
// aggregate interval is strictly tighter than the uniform referee's and
// its widest per-stratum interval is no wider.
func TestAdaptiveNoWiderThanUniform(t *testing.T) {
	const budget, strata, batch, seed = 48, 8, 12, 7
	s, err := New(Config{Dir: t.TempDir(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	// aggregate and widest-stratum interval widths of one finished campaign.
	widths := func(spec CampaignSpec) (agg, widest float64) {
		t.Helper()
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Wait(id, waitBound) {
			t.Fatalf("%s %s campaign did not finish", spec.Workload, spec.Sampling)
		}
		c, _ := s.Campaign(id)
		if st := c.Status(); st.Phase != PhaseDone {
			t.Fatalf("%s %s: phase %s (err %s)", spec.Workload, spec.Sampling, st.Phase, st.Error)
		}
		rep := c.VulnReport()
		for _, sr := range rep.Strata {
			widest = max(widest, sr.CIWidth)
		}
		return rep.AggCIWidth, widest
	}
	for _, name := range workloads.Names() {
		spec := CampaignSpec{Workload: name, N: budget, Seed: seed, Sampling: SampleUniform, Strata: strata, Workers: 2}
		uAgg, uWidest := widths(spec)
		spec.Sampling, spec.Batch = SampleAdaptive, batch
		aAgg, aWidest := widths(spec)
		t.Logf("%-9s uniform agg ±%.4f (widest stratum %.3f)  adaptive agg ±%.4f (widest stratum %.3f)",
			name, uAgg/2, uWidest, aAgg/2, aWidest)
		if aAgg >= uAgg {
			t.Errorf("%s: adaptive aggregate interval %.4f is not tighter than uniform's %.4f", name, aAgg, uAgg)
		}
		if aWidest > uWidest {
			t.Errorf("%s: adaptive widest stratum %.4f is wider than uniform's %.4f", name, aWidest, uWidest)
		}
	}
}

// TestServiceHTTP drives the full client surface: submit over POST,
// watch over SSE until done, then read status/results/report and the
// keyed observability endpoints.
func TestServiceHTTP(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := CampaignSpec{Workload: "pi", N: 6, Seed: 3}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var created struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if created.ID == "" {
		t.Fatal("no campaign ID")
	}

	// Stream until done: every result arrives exactly once, then the
	// terminal done event carries the final status.
	resp, err = http.Get(ts.URL + "/campaigns/" + created.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var event string
	results := map[int]bool{}
	doneSeen := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "result":
				var r campaign.Result
				if err := json.Unmarshal([]byte(data), &r); err != nil {
					t.Fatal(err)
				}
				if results[r.ID] {
					t.Fatalf("stream delivered experiment %d twice", r.ID)
				}
				results[r.ID] = true
			case "done":
				var st CampaignStatus
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					t.Fatal(err)
				}
				if st.Phase != PhaseDone {
					t.Fatalf("done event phase %s", st.Phase)
				}
				doneSeen = true
			}
		}
		if doneSeen {
			break
		}
	}
	if !doneSeen {
		t.Fatal("stream ended without a done event")
	}
	if len(results) != spec.N {
		t.Fatalf("stream delivered %d results, want %d", len(results), spec.N)
	}

	// REST reads.
	for _, path := range []string{
		"/campaigns",
		"/campaigns/" + created.ID,
		"/campaigns/" + created.ID + "/results",
		"/campaigns/" + created.ID + "/report",
		"/status?campaign=" + created.ID,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	var rep Report
	resp, err = http.Get(ts.URL + "/campaigns/" + created.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Total != spec.N {
		t.Fatalf("report total %d, want %d", rep.Total, spec.N)
	}

	// Unknown campaigns 404 on both API and keyed observability paths.
	for _, path := range []string{"/campaigns/nope", "/status?campaign=nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Bad specs are rejected before anything is journaled.
	for _, bad := range []CampaignSpec{
		{N: 5},                                  // no workload
		{Workload: "pi"},                        // no budget
		{Workload: "pi", N: 5, Scale: "galaxy"}, // bad scale
		{Workload: "pi", N: 5, Sampling: "maybe"}, // bad mode
		{Workload: "pi", N: 5, Model: "pipelind"}, // bad model
	} {
		b, _ := json.Marshal(bad)
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad spec %+v accepted with %d", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestServiceNoWWorkers: a service with no local slots feeds its whole
// queue to protocol workers via the ExpSource bridge, and a worker
// death mid-campaign loses nothing — its taken experiments requeue and
// count exactly once. The welcome ships the watchdog the campaign's own
// runners use and the campaign's observers: every result of a taint
// campaign carries its propagation summary, though all of them run
// remotely.
func TestServiceNoWWorkers(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Slots: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	s.ServeWorkers(ln)

	spec := CampaignSpec{Workload: "pi", N: 16, Seed: 13, Taint: true}
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitPhase(t, s, id, PhaseRunning)
	c, _ := s.Campaign(id)

	// The spec leaves MaxInsts 0, so the runners derived their watchdog
	// from the golden run; a worker must get that, not the spec's 0.
	wel, sess, ok := s.Open("probe")
	if !ok {
		t.Fatal("running campaign offered no work to a worker")
	}
	c.mu.Lock()
	watchdog := c.pool.Runner().Cfg.MaxInsts
	c.mu.Unlock()
	if wel.MaxInsts == 0 || wel.MaxInsts != watchdog {
		t.Fatalf("welcome MaxInsts %d, runners use %d", wel.MaxInsts, watchdog)
	}
	if len(wel.Checkpoint) == 0 {
		t.Fatal("welcome carries no checkpoint")
	}
	if !wel.Taint {
		t.Fatal("welcome of a taint campaign does not ask for taint")
	}
	sess.Close()
	if st := c.Status(); st.Pending != spec.N {
		t.Fatalf("%d of %d experiments pending before any worker joined", st.Pending, spec.N)
	}

	w := now.NewWorker(now.WorkerConfig{Addr: ln.Addr().String(), Slots: 2})
	done := make(chan int, 1)
	go func() {
		n, err := w.Run()
		if err != nil {
			t.Errorf("worker: %v", err)
		}
		done <- n
	}()

	if !s.Wait(id, waitBound) {
		t.Fatal("campaign did not finish")
	}
	if workerN := <-done; workerN != spec.N {
		t.Fatalf("worker completed %d of %d experiments", workerN, spec.N)
	}
	got := c.Results()
	if len(got) != spec.N {
		t.Fatalf("campaign has %d results, want %d", len(got), spec.N)
	}
	seen := map[int]bool{}
	for _, r := range got {
		if seen[r.ID] {
			t.Fatalf("experiment %d double-counted", r.ID)
		}
		seen[r.ID] = true
		if r.Prop == nil {
			t.Errorf("experiment %d (run by %q) carries no propagation summary", r.ID, r.Worker)
		}
	}
}

// TestShutdownDrainJournalsInFlight: Shutdown stops handing out work but
// waits for an experiment a worker already holds, and journals its
// result, instead of dropping what another machine already paid for.
func TestShutdownDrainJournalsInFlight(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Slots: -1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(CampaignSpec{Workload: "pi", N: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitPhase(t, s, id, PhaseRunning)
	_, sess, ok := s.Open("w")
	if !ok {
		t.Fatal("running campaign offered no work to a worker")
	}
	exp, _, ok := sess.Take()
	if !ok {
		t.Fatal("worker got no experiment")
	}
	c, _ := s.Campaign(id)
	c.mu.Lock()
	r := c.pool.Runner()
	c.mu.Unlock()
	res := r.Run(exp)

	const bound = time.Minute
	start := time.Now()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(bound) }()
	for {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, ok := sess.Take(); ok {
		t.Fatal("a draining service handed out another experiment")
	}
	sess.Complete(res, nil)
	sess.Close()
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited >= bound {
		t.Fatalf("Shutdown waited out its bound (%s)", waited)
	}

	_, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st.Camps[id].Results[exp.ID]
	if !ok {
		t.Fatalf("drained result of experiment %d was not journaled", exp.ID)
	}
	if got.Outcome != res.Outcome {
		t.Fatalf("journaled outcome %v, worker reported %v", got.Outcome, res.Outcome)
	}
}

// TestServiceFairSharing: two campaigns submitted together both finish,
// and the heavier-weighted one does not starve the lighter.
func TestServiceFairSharing(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	idA, err := s.Submit(CampaignSpec{Workload: "pi", N: 8, Seed: 1, Tenant: "a", Weight: 3})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s.Submit(CampaignSpec{Workload: "pi", N: 8, Seed: 2, Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{idA, idB} {
		if !s.Wait(id, waitBound) {
			t.Fatalf("campaign %s did not finish", id)
		}
		c, _ := s.Campaign(id)
		if st := c.Status(); st.Phase != PhaseDone || st.Done != 8 {
			t.Fatalf("campaign %s: %+v", id, st)
		}
	}
	sts := s.Campaigns()
	if len(sts) != 2 {
		t.Fatalf("listed %d campaigns, want 2", len(sts))
	}
	if sts[0].Tenant != "a" || sts[1].Tenant != "b" {
		t.Fatalf("tenants wrong: %s %s", sts[0].Tenant, sts[1].Tenant)
	}
}
