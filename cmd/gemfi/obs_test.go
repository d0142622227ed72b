package main

// End-to-end checks of the observability outputs, the flight recorder,
// the propagation tracker and the fork server, driven through the
// subcommands with the workloads, seeds and budgets of the CI steps
// they replace.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/taint"
)

// chromeEvent is the part of a catapult trace event the checks read.
type chromeEvent struct {
	Ph   string `json:"ph"`
	Name string `json:"name"`
}

func readChrome(t *testing.T, path string) []chromeEvent {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(b, &evs); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return evs
}

func hasEvent(evs []chromeEvent, ph, name string) bool {
	for _, e := range evs {
		if e.Ph == ph && (name == "" || e.Name == name) {
			return true
		}
	}
	return false
}

func TestSpanOutputs(t *testing.T) {
	dir := t.TempDir()
	t.Run("traced campaign JSONL", func(t *testing.T) {
		jsonl := filepath.Join(dir, "trace.jsonl")
		mustGemfi(t, "campaign", "-experiment", "custom", "-workload", "pi", "-n", "10", "-parallel", "2",
			"-metrics", "-spans-jsonl", jsonl, "-trace-id", "last")
		mustGemfi(t, "validate", "spans", jsonl)
	})
	t.Run("traced injection run Chrome trace", func(t *testing.T) {
		faults := writeTemp(t, "faults.txt", "RegisterInjectedFault Inst:100 Flip:3 Threadid:0 system.cpu0 occ:1 int 6\n")
		chrome := filepath.Join(dir, "chrome.json")
		mustGemfi(t, "run", "-workload", "pi", "-scale", "test", "-model", "timing", "-faults", faults,
			"-spans-chrome", chrome, "-metrics")
		evs := readChrome(t, chrome)
		if !hasEvent(evs, "X", "fi-window") {
			t.Error("no fi-window slice")
		}
		if !hasEvent(evs, "i", "fault.injected") {
			t.Error("no fault.injected instant")
		}
	})
	t.Run("traced fork campaign JSONL", func(t *testing.T) {
		jsonl := filepath.Join(dir, "fork-spans.jsonl")
		mustGemfi(t, "campaign", "-experiment", "custom", "-workload", "pi", "-n", "20", "-parallel", "2",
			"-fork", "-spans-jsonl", jsonl, "-progress=false")
		mustGemfi(t, "validate", "spans", jsonl)
	})
	t.Run("campaign Perfetto export", func(t *testing.T) {
		chrome := filepath.Join(dir, "spans-chrome.json")
		mustGemfi(t, "campaign", "-experiment", "custom", "-workload", "pi", "-n", "10", "-parallel", "2",
			"-spans-chrome", chrome, "-progress=false")
		if !hasEvent(readChrome(t, chrome), "X", "") {
			t.Error("no span slices")
		}
	})
	t.Run("empty span file", func(t *testing.T) {
		if _, err := gemfi(t, "validate", "spans", writeTemp(t, "empty.jsonl", "")); err == nil {
			t.Error("an empty span file validated")
		}
	})
}

// TestLiveEndpoints scrapes a running campaign's /metrics, /status and
// /profile on its in-process service, then cancels it.
func TestLiveEndpoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := background(ctx, []string{"campaign", "-experiment", "custom", "-workload", "pi", "-n", "2000",
		"-parallel", "2", "-http", "127.0.0.1:0", "-profile", "-progress=false"}, &stdout, &stderr)
	base := await(t, &stderr, `observability server on (http://\S+)`)
	id := await(t, &stderr, `\(campaign (\w+)\)`)
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d, %v", path, resp.StatusCode, err)
		}
		return b
	}
	// The server is up before the golden run ends; wait until the
	// campaign's /status counts finished experiments.
	var status struct {
		Workload string `json:"workload"`
		Budget   int    `json:"budget"`
		Done     int    `json:"done"`
	}
	for deadline := time.Now().Add(10 * time.Second); status.Done == 0 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if err := json.Unmarshal(get("/status?campaign="+id), &status); err != nil {
			t.Fatal(err)
		}
	}
	if status.Workload != "pi" || status.Budget != 2000 {
		t.Fatalf("/status = %+v", status)
	}
	prom := filepath.Join(t.TempDir(), "metrics.prom")
	if err := os.WriteFile(prom, get("/metrics"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustGemfi(t, "validate", "prom", prom)
	if !strings.Contains(string(get("/profile?n=5&campaign="+id)), "guest profile:") {
		t.Error("/profile has no guest profile")
	}
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "campaign stopped after") {
			t.Fatalf("cancelled campaign returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not stop on cancellation")
	}
}

func TestFlightRecorder(t *testing.T) {
	t.Run("crashed single run", func(t *testing.T) {
		faults := writeTemp(t, "pc-fault.txt", "PCInjectedFault Inst:2000 Flip:30 Threadid:0 occ:1\n")
		out, err := gemfi(t, "run", "-workload", "pi", "-scale", "test", "-faults", faults, "-flight")
		if exitStatus(err) != 2 {
			t.Fatalf("crashed run returned %v", err)
		}
		if !strings.Contains(out, "post-mortem: experiment") || !strings.Contains(out, "TRAP") {
			t.Fatalf("no post-mortem timeline:\n%s", out)
		}
	})
	t.Run("crash-heavy campaign", func(t *testing.T) {
		dir := t.TempDir()
		js := filepath.Join(dir, "flight-results.json")
		out := mustGemfi(t, "campaign", "-experiment", "custom", "-workload", "pi", "-n", "60", "-parallel", "2",
			"-flight", "-json", js, "-progress=false")
		if !strings.Contains(out, "flight recorder:") {
			t.Fatalf("no dump count:\n%s", out)
		}
		b, err := os.ReadFile(js)
		if err != nil {
			t.Fatal(err)
		}
		var results []campaign.Result
		if err := json.Unmarshal(b, &results); err != nil {
			t.Fatal(err)
		}
		var crashed []campaign.Result
		for _, r := range results {
			switch r.Outcome {
			case campaign.OutcomeCrashed:
				crashed = append(crashed, r)
				pm := r.Postmortem
				if pm == nil {
					t.Fatalf("crashed experiment %d has no dump", r.ID)
				}
				if last := pm.Records[len(pm.Records)-1]; !last.Trap || last.PC != pm.CrashPC {
					t.Errorf("experiment %d: final record is not the trap at the crash pc", r.ID)
				}
			case campaign.OutcomeNonPropagated, campaign.OutcomeStrictlyCorrect, campaign.OutcomeCorrect:
				if r.Prop != nil && r.Prop.Verdict == taint.VerdictReachedState {
					continue
				}
				if r.Postmortem != nil {
					t.Errorf("masked experiment %d carries a dump", r.ID)
				}
			}
		}
		if len(crashed) == 0 {
			t.Fatal("campaign produced no crashed experiments")
		}
		pm, err := json.Marshal(crashed[0].Postmortem)
		if err != nil {
			t.Fatal(err)
		}
		mustGemfi(t, "validate", "postmortem", writeTemp(t, "pm.json", string(pm)))
	})
}

func TestTaint(t *testing.T) {
	t.Run("campaign explains every outcome", func(t *testing.T) {
		out := mustGemfi(t, "campaign", "-experiment", "custom", "-workload", "pi", "-n", "30", "-parallel", "2",
			"-taint", "-progress=false")
		if !strings.Contains(out, "propagation verdicts:") {
			t.Fatalf("no verdict tally:\n%s", out)
		}
	})
	t.Run("report JSON and DOT", func(t *testing.T) {
		dir := t.TempDir()
		faults := writeTemp(t, "faults.txt", "RegisterInjectedFault Inst:1000 Flip:3 Threadid:0 system.cpu0 occ:1 int 9\n")
		prop, dot := filepath.Join(dir, "prop.json"), filepath.Join(dir, "prop.dot")
		mustGemfi(t, "run", "-workload", "pi", "-scale", "test", "-faults", faults, "-taint-json", prop, "-taint-dot", dot)
		mustGemfi(t, "validate", "taint", prop)
		if _, err := exec.LookPath("dot"); err != nil {
			t.Log("graphviz not installed; skipping the DOT render")
			return
		}
		svg := filepath.Join(dir, "prop.svg")
		if out, err := exec.Command("dot", "-Tsvg", dot, "-o", svg).CombinedOutput(); err != nil {
			t.Fatalf("dot: %v\n%s", err, out)
		}
		if st, err := os.Stat(svg); err != nil || st.Size() == 0 {
			t.Fatalf("dot wrote no SVG (%v)", err)
		}
	})
}

// TestForkMatchesReplay diffs fork-server tallies against full replay.
// The pipelined leg's trunk snapshots carry stage counters without the
// wrong-path fetches, decodes and executes a pipelined replay counts, so
// a pipelined child's fetch/decode/execute fault can strike another
// dynamic instruction than the replay's and tallies may differ for some
// fault corpora; seed 3's corpus agrees.
func TestForkMatchesReplay(t *testing.T) {
	for _, tc := range []struct{ model, seed string }{{"atomic", "9"}, {"pipelined", "3"}} {
		t.Run(fmt.Sprintf("%s seed %s", tc.model, tc.seed), func(t *testing.T) {
			args := []string{"campaign", "-experiment", "custom", "-workload", "dct", "-model", tc.model,
				"-n", "16", "-parallel", "4", "-seed", tc.seed, "-progress=false"}
			replay := mustGemfi(t, args...)
			fork := mustGemfi(t, append(args, "-fork")...)
			if r, f := tallyLines(replay), tallyLines(fork); r != f {
				t.Errorf("tallies differ\nreplay:\n%s\nfork:\n%s", r, f)
			}
			if !strings.Contains(fork, "fork server:") || !strings.Contains(fork, "pre-classified dead-register faults") {
				t.Errorf("no fork server report with its pre-classified count:\n%s", fork)
			}
		})
	}
}
