package serv

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCampaignRunnersBoundedBySlots: a campaign's pool has Workers
// runners (default 1), bounded by the service's slot budget and nothing
// else. A local gemfi campaign -parallel 3 runs with 3 slots and 3
// workers, so it builds 3 runners; a budget of 9 builds 9.
func TestCampaignRunnersBoundedBySlots(t *testing.T) {
	for _, tc := range []struct{ workers, slots, want int }{
		{3, 2, 2}, {3, 3, 3}, {9, 9, 9}, {0, 4, 1}, {2, -1, 1},
	} {
		c := newCampaign("c0001", &persisted{Spec: CampaignSpec{Workload: "pi", N: 1, Workers: tc.workers}})
		if _, err := c.prepare(tc.slots); err != nil {
			t.Fatal(err)
		}
		if got := c.pool.Size(); got != tc.want {
			t.Errorf("Workers %d under Slots %d: %d runners, want %d", tc.workers, tc.slots, got, tc.want)
		}
	}
}

// TestServiceSpansAndExemplars: the service wires its recorder to the
// campaign's pool, every experiment is one trace, and the campaign
// metrics on /metrics carry trace-ID exemplars.
func TestServiceSpansAndExemplars(t *testing.T) {
	rec := obs.NewSpanRecorder()
	s, err := New(Config{Dir: t.TempDir(), Slots: 2, Metrics: obs.NewRegistry(), Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, err := s.Submit(CampaignSpec{Workload: "pi", N: 8, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Wait(id, waitBound) {
		t.Fatal("campaign did not finish")
	}
	c, _ := s.Campaign(id)
	results := c.Results()
	if len(results) != 8 {
		t.Fatalf("results = %d", len(results))
	}
	if got := len(rec.Traces()); got != len(results) {
		t.Fatalf("traces = %d, want %d", got, len(results))
	}
	for _, res := range results {
		if res.TraceID == "" {
			t.Errorf("experiment %d: no trace ID", res.ID)
		} else if rec.TraceByID(res.TraceID) == nil {
			t.Errorf("experiment %d: trace %s missing from ring", res.ID, res.TraceID)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom := readAll(t, resp)
	for _, want := range []string{"trace_id=", "gemfi_campaign_exp_duration_us", "gemfi_campaign_phase_", "gemfi_campaign_completed 8"} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics has no %q:\n%.2000s", want, prom)
		}
	}
}

// TestForkCampaignWalks: a forked campaign's local slots run trigger
// walks, so experiments share walks.
func TestForkCampaignWalks(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	const n = 60
	id, err := s.Submit(CampaignSpec{Workload: "pi", N: n, Seed: 5, Workers: 2, Fork: true})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Wait(id, waitBound) {
		t.Fatal("campaign did not finish")
	}
	c, _ := s.Campaign(id)
	if got := len(c.Results()); got != n {
		t.Fatalf("results = %d, want %d", got, n)
	}
	st := c.ForkStats()
	if st.Walks == 0 || st.Walks >= n || st.Forks != n {
		t.Fatalf("%d walks and %d forks for %d experiments, want fewer walks than experiments", st.Walks, st.Forks, n)
	}
}

// TestShutdownStopsWalks: Shutdown during long trigger walks stops each
// walk between members. Every finished member is journaled exactly
// once, the unstarted ones go back to pending, and a resumed service
// completes the rest with each experiment counted once.
func TestShutdownStopsWalks(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := CampaignSpec{Workload: "pi", Model: "pipelined", N: 200, Seed: 4, Fork: true}
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s.Campaign(id)
	for deadline := time.Now().Add(waitBound); c.Status().Done < 5; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("campaign never got going")
		}
	}
	if err := s.Shutdown(waitBound); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.InFlight != 0 {
		t.Fatalf("%d experiments still in flight after Shutdown", st.InFlight)
	}

	f, err := os.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[int]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.T == recResult && r.Campaign == id {
			journaled[r.Result.ID]++
		}
	}
	f.Close()
	for expID, k := range journaled {
		if k != 1 {
			t.Errorf("experiment %d journaled %d times", expID, k)
		}
	}
	t.Logf("%d of %d experiments journaled before the drain", len(journaled), spec.N)
	if len(journaled) == spec.N {
		t.Log("the campaign finished before Shutdown; no walk was cut")
	}

	s2, err := New(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(time.Second)
	if !s2.Wait(id, waitBound) {
		t.Fatal("resumed campaign did not finish")
	}
	c2, _ := s2.Campaign(id)
	seen := map[int]bool{}
	for _, r := range c2.Results() {
		if seen[r.ID] {
			t.Fatalf("experiment %d counted twice", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != spec.N {
		t.Fatalf("resumed campaign has %d results, want %d", len(seen), spec.N)
	}
}
