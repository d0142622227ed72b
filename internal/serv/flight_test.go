package serv

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/now"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// TestServiceFlightForkCampaignNoW is the flight-recorder acceptance
// end-to-end: a fork-mode campaign with Flight set, executed partly on a
// NoW worker, must land exactly one post-mortem dump on every crashed
// (and SDC/reached-state) result — including the results shipped back by
// the worker — none on masked results, and serve each dump live at
// /postmortem/{id} in both JSON and text form.
func TestServiceFlightForkCampaignNoW(t *testing.T) {
	rec := obs.NewSpanRecorder()
	s, err := New(Config{Dir: t.TempDir(), Slots: 1, Spans: rec})
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
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A heavy, high-weight blocker campaign pins the single local slot so
	// the flight campaign's experiments reliably wait long enough for the
	// NoW worker to join and take a share.
	blockerID, err := s.Submit(CampaignSpec{
		Workload: "pi", N: 30, Seed: 1, Scale: "small", Model: "pipelined",
		Tenant: "blocker", Weight: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitPhase(t, s, blockerID, PhaseRunning)

	// Flight comes from the spec (per-campaign): the welcome message
	// carries it to the worker, whose runner attaches its own recorder.
	spec := CampaignSpec{Workload: "pi", N: 40, Seed: 13, Fork: true, Flight: true, Tenant: "t1"}
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitPhase(t, s, id, PhaseRunning)
	w := now.NewWorker(now.WorkerConfig{Addr: ln.Addr().String(), Slots: 2, Name: "nw0"})
	workerDone := make(chan int, 1)
	go func() {
		n, err := w.Run()
		if err != nil {
			t.Logf("worker exit: %v", err)
		}
		workerDone <- n
	}()
	if !s.Wait(id, waitBound) {
		t.Fatal("campaign did not finish")
	}
	workerN := <-workerDone
	t.Logf("NoW worker completed %d of %d experiments", workerN, spec.N)

	c, _ := s.Campaign(id)
	results := c.Results()
	if len(results) != spec.N {
		t.Fatalf("results = %d, want %d", len(results), spec.N)
	}

	crashed, dumps, remoteDumps := 0, 0, 0
	for _, r := range results {
		interesting := r.Outcome == campaign.OutcomeCrashed || r.Outcome == campaign.OutcomeSDC
		switch {
		case interesting && r.Postmortem == nil:
			t.Errorf("experiment %d (%s) has no post-mortem dump", r.ID, r.Outcome)
		case !interesting && r.Postmortem != nil:
			t.Errorf("experiment %d (%s) carries an unexpected dump", r.ID, r.Outcome)
		}
		if r.Outcome == campaign.OutcomeCrashed {
			crashed++
			if pm := r.Postmortem; pm != nil {
				// The dump's final record is the trap at the crash PC.
				last := pm.Records[len(pm.Records)-1]
				if !last.Trap || last.PC != pm.CrashPC {
					t.Errorf("experiment %d: final record pc %#x trap=%v, crashPc %#x",
						r.ID, last.PC, last.Trap, pm.CrashPC)
				}
			}
		}
		if r.Postmortem != nil {
			dumps++
			if strings.HasPrefix(r.Worker, "nw0") {
				remoteDumps++
			}
		}
	}
	if crashed == 0 {
		t.Fatal("campaign produced no crashed experiments — the acceptance run must be crash-heavy")
	}
	t.Logf("%d crashed, %d dumps (%d shipped by the NoW worker)", crashed, dumps, remoteDumps)
	if remoteDumps == 0 {
		t.Error("no dump shipped back by the NoW worker — the result-message path is untested")
	}

	// Every dump is fetchable by trace ID and by campaign/exp addressing,
	// and the served JSON satisfies the schema validator.
	for _, r := range results {
		if r.Postmortem == nil {
			continue
		}
		for _, addr := range []string{r.TraceID, id + "/" + strconv.Itoa(r.ID)} {
			resp, err := http.Get(ts.URL + "/postmortem/" + addr)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/postmortem/%s: %d %s", addr, resp.StatusCode, body)
			}
			pm, err := flight.ValidatePostmortemJSON(strings.NewReader(body))
			if err != nil {
				t.Fatalf("/postmortem/%s: invalid dump: %v", addr, err)
			}
			if pm.ExpID != r.ID {
				t.Errorf("/postmortem/%s: expId %d, want %d", addr, pm.ExpID, r.ID)
			}
		}
	}
	// Text timeline renders.
	for _, r := range results {
		if r.Postmortem == nil {
			continue
		}
		resp, err := http.Get(ts.URL + "/postmortem/" + r.TraceID + "?format=text")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if !strings.Contains(body, "post-mortem: experiment") {
			t.Errorf("text dump missing header: %s", body)
		}
		break
	}
	// Masked results 404.
	for _, r := range results {
		if r.Postmortem != nil || r.TraceID == "" {
			continue
		}
		resp, err := http.Get(ts.URL + "/postmortem/" + r.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("/postmortem/%s (masked): %d %s, want 404", r.TraceID, resp.StatusCode, body)
		}
		break
	}

	// Satellite: /traces?postmortems=1 lists only traces with dumps, and
	// limit caps the listing.
	resp, err := http.Get(ts.URL + "/traces?tenant=t1&postmortems=1&n=100")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/traces?postmortems=1: %d %s", resp.StatusCode, body)
	}
	listed := strings.Count(body, `"traceId"`)
	if listed != dumps {
		t.Errorf("/traces?postmortems=1 listed %d traces, want %d (one per dump)", listed, dumps)
	}
	resp, err = http.Get(ts.URL + "/traces?tenant=t1&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if n := strings.Count(body, `"traceId"`); n != 1 {
		t.Errorf("/traces?limit=1 listed %d traces, want 1", n)
	}
	// A since bound in the far future filters everything out.
	resp, err = http.Get(ts.URL + "/traces?tenant=t1&since=9223372036854775806")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if n := strings.Count(body, `"traceId"`); n != 0 {
		t.Errorf("/traces?since=<future> listed %d traces, want 0", n)
	}

	// Dumps survive a restart — they ride the journaled results, so a
	// resumed service answers Postmortem lookups with no re-execution.
	dir := s.cfg.Dir
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Dir: dir, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(time.Second)
	for _, r := range results {
		if r.Postmortem == nil {
			continue
		}
		pm, ok := s2.Postmortem(id + "/" + strconv.Itoa(r.ID))
		if !ok || pm == nil {
			t.Fatalf("dump for experiment %d lost across restart", r.ID)
		}
		if pm.FinalPC() != r.Postmortem.FinalPC() {
			t.Errorf("experiment %d: replayed final pc %#x, want %#x",
				r.ID, pm.FinalPC(), r.Postmortem.FinalPC())
		}
	}
}
