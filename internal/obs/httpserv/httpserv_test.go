package httpserv

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/taint"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func testProfile() *prof.Profile {
	p := prof.New(0x1000, 4)
	p.OnCommit(&cpu.Commit{PC: 0x1000, Ticks: 1})
	p.OnCommit(&cpu.Commit{PC: 0x1004, Ticks: 2})
	p.OnCommit(&cpu.Commit{PC: 0x1004, Ticks: 3})
	return p.Snapshot()
}

func testReport() *taint.PropReport {
	return &taint.PropReport{
		Verdict:      taint.VerdictReachedOutput,
		Injections:   1,
		TaintedInsts: 5, CommittedInsts: 20,
		MaxLiveTaint: 2, FirstLoad: -1, FirstStore: -1, FirstBranch: -1,
		FirstOutput: 7, OutputBytes: 1,
		Nodes: []taint.Node{
			{ID: 0, Kind: taint.NodeInject, PC: 0x1000, Label: "int:r5", Hits: 1},
			{ID: 1, Kind: taint.NodeOutput, PC: 0x1010, Hits: 1},
		},
		Edges: []taint.Edge{{From: 0, To: 1, N: 1}},
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("sim.insts").Add(42)
	reg.Histogram("campaign.exp.duration_ms").Observe(3)

	type status struct {
		Queue int `json:"queue"`
	}
	srv, err := New("127.0.0.1:0", Config{
		Metrics: reg,
		Status:  func() any { return status{Queue: 7} },
		Profile: testProfile,
		Taint:   testReport,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// /metrics serves valid Prometheus exposition.
	code, body := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d:\n%s", code, body)
	}
	if n, err := obs.ValidateProm(strings.NewReader(body)); err != nil || n == 0 {
		t.Fatalf("/metrics does not validate (n=%d): %v\n%s", n, err, body)
	}
	if !strings.Contains(body, "gemfi_sim_insts 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	// /status serves the provider's JSON.
	code, body = get(t, srv.URL()+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status status %d:\n%s", code, body)
	}
	var st status
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.Queue != 7 {
		t.Errorf("/status decode: %v (queue=%d)\n%s", err, st.Queue, body)
	}

	// /profile in all three formats.
	code, body = get(t, srv.URL()+"/profile")
	if code != http.StatusOK || !strings.Contains(body, "0x1004") {
		t.Errorf("/profile top: status %d:\n%s", code, body)
	}
	code, body = get(t, srv.URL()+"/profile?format=json")
	if code != http.StatusOK {
		t.Fatalf("/profile json status %d", code)
	}
	var pp prof.Profile
	if err := json.Unmarshal([]byte(body), &pp); err != nil {
		t.Errorf("/profile json decode: %v\n%s", err, body)
	}
	if pp.TotalInsts != 3 {
		t.Errorf("profile total insts = %d, want 3", pp.TotalInsts)
	}
	code, _ = get(t, srv.URL()+"/profile?format=folded")
	if code != http.StatusOK {
		t.Errorf("/profile folded status %d", code)
	}

	// /taint serves the report in all three formats.
	code, body = get(t, srv.URL()+"/taint")
	if code != http.StatusOK {
		t.Fatalf("/taint status %d:\n%s", code, body)
	}
	if rep, err := taint.ValidateReportJSON(strings.NewReader(body)); err != nil {
		t.Errorf("/taint json does not validate: %v\n%s", err, body)
	} else if rep.Verdict != taint.VerdictReachedOutput {
		t.Errorf("/taint verdict = %q", rep.Verdict)
	}
	code, body = get(t, srv.URL()+"/taint?format=dot")
	if code != http.StatusOK || !strings.Contains(body, "digraph") {
		t.Errorf("/taint dot: status %d:\n%s", code, body)
	}
	code, body = get(t, srv.URL()+"/taint?format=text")
	if code != http.StatusOK || !strings.Contains(body, "verdict") {
		t.Errorf("/taint text: status %d:\n%s", code, body)
	}

	// pprof index is wired.
	code, body = get(t, srv.URL()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d:\n%s", code, body)
	}

	// Index page enumerates every registered endpoint.
	code, body = get(t, srv.URL()+"/")
	if code != http.StatusOK {
		t.Fatalf("index status %d:\n%s", code, body)
	}
	for _, ep := range []string{"/metrics", "/status", "/profile", "/taint", "/debug/pprof/"} {
		if !strings.Contains(body, ep) {
			t.Errorf("index page missing %s:\n%s", ep, body)
		}
	}
}

func TestServerMissingProviders(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/status", "/profile", "/taint"} {
		if code, _ := get(t, srv.URL()+path); code != http.StatusNotFound {
			t.Errorf("%s with no provider: status %d, want 404", path, code)
		}
	}
	if code, _ := get(t, srv.URL()+"/nosuch"); code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", code)
	}
}

// TestPerCampaignSelection: on a multi-campaign host, /taint, /profile
// and /status must answer with the keyed campaign's data — not the
// freshest global — and 404 unknown campaigns.
func TestPerCampaignSelection(t *testing.T) {
	repA := testReport()
	repB := testReport()
	repB.Injections = 2
	profiles := map[string]*prof.Profile{"a": testProfile(), "b": nil}
	srv, err := New("127.0.0.1:0", Config{
		Taint: func() *taint.PropReport { return repB }, // global freshest
		TaintFor: func(c string) (*taint.PropReport, bool) {
			switch c {
			case "a":
				return repA, true
			case "b":
				return repB, true
			}
			return nil, false
		},
		ProfileFor: func(c string) (*prof.Profile, bool) {
			p, ok := profiles[c]
			return p, ok
		},
		StatusFor: func(c string) (any, bool) {
			if c != "a" {
				return nil, false
			}
			return map[string]int{"done": 5}, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/taint?campaign=a")
	if code != http.StatusOK {
		t.Fatalf("/taint?campaign=a status %d:\n%s", code, body)
	}
	var got taint.PropReport
	if err := json.Unmarshal([]byte(body), &got); err != nil || got.Injections != 1 {
		t.Errorf("campaign a got the wrong report (injections=%d): %v", got.Injections, err)
	}
	if code, _ := get(t, srv.URL()+"/taint?campaign=zzz"); code != http.StatusNotFound {
		t.Errorf("unknown campaign: status %d, want 404", code)
	}
	// Bare /taint still serves the global freshest.
	_, body = get(t, srv.URL()+"/taint")
	if err := json.Unmarshal([]byte(body), &got); err != nil || got.Injections != 2 {
		t.Errorf("global taint report wrong (injections=%d)", got.Injections)
	}

	if code, _ = get(t, srv.URL()+"/profile?campaign=a&format=json"); code != http.StatusOK {
		t.Errorf("/profile?campaign=a status %d", code)
	}
	// Known campaign with no profiler attached: 503, not 404.
	if code, _ = get(t, srv.URL()+"/profile?campaign=b"); code != http.StatusServiceUnavailable {
		t.Errorf("/profile?campaign=b status %d, want 503", code)
	}

	code, body = get(t, srv.URL()+"/status?campaign=a")
	if code != http.StatusOK || !strings.Contains(body, "done") {
		t.Errorf("/status?campaign=a status %d:\n%s", code, body)
	}

	// A single-campaign server (no keyed providers) rejects the key
	// explicitly instead of serving misleading global data.
	single, err := New("127.0.0.1:0", Config{Taint: func() *taint.PropReport { return repA }})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if code, _ = get(t, single.URL()+"/taint?campaign=a"); code != http.StatusNotFound {
		t.Errorf("keyed request on single-campaign host: status %d, want 404", code)
	}
}
