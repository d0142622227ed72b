package now_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/now"
	"repro/internal/obs"
	"repro/internal/serv"
	"repro/internal/sim"
)

// TestNoWSpanPropagation: worker-side spans must stitch under the
// master's experiment span into one valid tree per experiment, with the
// clock-skew annotation on the root.
func TestNoWSpanPropagation(t *testing.T) {
	rec := obs.NewSpanRecorder()
	s, id, addr := startCampaign(t, serv.Config{Spans: rec}, sim.ModelAtomic, 6)
	var wg sync.WaitGroup
	runWorker(t, &wg, now.WorkerConfig{Addr: addr, Slots: 1, Name: "w0"}, nil)
	results := waitResults(t, s, id)
	wg.Wait()
	if len(results) != 6 {
		t.Fatalf("results = %d of 6", len(results))
	}
	for _, r := range results {
		if !strings.HasPrefix(r.Worker, "w0") {
			t.Errorf("experiment %d: worker = %q, want w0 slot", r.ID, r.Worker)
		}
		if r.WallNs <= 0 {
			t.Errorf("experiment %d: wallNs = %d", r.ID, r.WallNs)
		}
	}

	traces := rec.Traces()
	if len(traces) != len(results) {
		t.Fatalf("traces = %d, want %d", len(traces), len(results))
	}
	seenExp := map[int]int{}
	for _, tr := range traces {
		root := tr.Root()
		if root == nil || root.Name != "experiment" || root.ParentID != "" {
			t.Fatalf("bad root: %+v", root)
		}
		id, ok := root.Attrs["exp_id"].(int)
		if !ok {
			t.Fatalf("root missing exp_id attr: %+v", root.Attrs)
		}
		seenExp[id]++
		if _, ok := root.Attrs["clock_skew_ns"]; !ok {
			t.Errorf("experiment %d: root missing clock_skew_ns", id)
		}
		var worker *obs.SpanRecord
		for i := range tr.Spans {
			if tr.Spans[i].Name == "worker" {
				worker = &tr.Spans[i]
			}
		}
		if worker == nil {
			t.Fatalf("experiment %d: no worker span among %d spans", id, len(tr.Spans))
		}
		if worker.ParentID != root.SpanID {
			t.Errorf("experiment %d: worker span parented under %s, want root %s",
				id, worker.ParentID, root.SpanID)
		}
		var buf bytes.Buffer
		if err := obs.WriteTraceJSONL(&buf, *tr); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ValidateSpansJSONL(&buf); err != nil {
			t.Errorf("experiment %d: stitched tree invalid: %v", id, err)
		}
	}
	for id, n := range seenExp {
		if n != 1 {
			t.Errorf("experiment %d has %d span trees, want exactly 1", id, n)
		}
	}
	if len(seenExp) != len(results) {
		t.Errorf("distinct experiment trees = %d, want %d", len(seenExp), len(results))
	}
}

// TestNoWSpanRetryAfterWorkerDeath: a worker that dies holding an
// assignment must leave exactly one span tree for the experiment — the
// half-built trace is abandoned, and the retried run gets a fresh root
// carrying retry_of.
func TestNoWSpanRetryAfterWorkerDeath(t *testing.T) {
	rec, reg := obs.NewSpanRecorder(), obs.NewRegistry()
	s, id, addr := startCampaign(t, serv.Config{Spans: rec, Metrics: reg}, sim.ModelAtomic, 6)

	// A flaky client fetches one experiment (with its trace context)
	// and disconnects without reporting a result.
	assigned := takeAndDie(t, addr, reg)
	if assigned.Trace == nil {
		t.Fatalf("assignment missing trace context: %+v", assigned)
	}
	lostExp := assigned.Experiment.ID
	lostTrace := assigned.Trace.TraceID

	var wg sync.WaitGroup
	runWorker(t, &wg, now.WorkerConfig{Addr: addr, Slots: 1, Name: "w0"}, nil)
	results := waitResults(t, s, id)
	wg.Wait()
	if len(results) != 6 {
		t.Fatalf("campaign incomplete after worker death: %d of 6", len(results))
	}

	if rec.TraceByID(lostTrace) != nil {
		t.Error("abandoned trace of the dead worker survived in the ring")
	}
	if rec.Dropped() == 0 {
		t.Error("abandoned spans not counted as dropped")
	}
	traces := rec.Traces()
	if len(traces) != len(results) {
		t.Fatalf("traces = %d, want exactly %d (one tree per experiment)", len(traces), len(results))
	}
	var retried *obs.SpanRecord
	perExp := map[int]int{}
	for _, tr := range traces {
		root := tr.Root()
		id, _ := root.Attrs["exp_id"].(int)
		perExp[id]++
		if id == lostExp {
			retried = root
		}
	}
	for id, n := range perExp {
		if n != 1 {
			t.Errorf("experiment %d has %d span trees, want exactly 1", id, n)
		}
	}
	if retried == nil {
		t.Fatalf("no span tree for requeued experiment %d", lostExp)
	}
	if got, _ := retried.Attrs["retry_of"].(string); got != lostTrace {
		t.Errorf("retry_of = %q, want abandoned trace %q", got, lostTrace)
	}
	if retried.TraceID == lostTrace {
		t.Error("retried experiment reused the abandoned trace ID")
	}
}
