package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeBasics(t *testing.T) {
	r := NewSpanRecorder()
	root := r.StartRoot("experiment")
	root.SetAttr("exp_id", 7)
	root.SetTrack("w1")
	child := r.StartSpan("restore", root.Context())
	child.SetTicks(0, 100)
	child.End()
	root.End()

	tr := r.TraceByID(root.Context().TraceID)
	if tr == nil {
		t.Fatal("trace not in ring after root end")
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	rt := tr.Root()
	if rt == nil || rt.Name != "experiment" {
		t.Fatalf("root = %+v", rt)
	}
	if rt.Track != "w1" || rt.Attrs["exp_id"] != 7 {
		t.Fatalf("root attrs/track lost: %+v", rt)
	}
	var kid *SpanRecord
	for i := range tr.Spans {
		if tr.Spans[i].Name == "restore" {
			kid = &tr.Spans[i]
		}
	}
	if kid == nil || kid.ParentID != rt.SpanID {
		t.Fatalf("child not parented under root: %+v", kid)
	}
	if kid.EndTick != 100 {
		t.Fatalf("child ticks lost: %+v", kid)
	}
	if r.ActiveTraces() != 0 {
		t.Fatalf("active = %d after completion", r.ActiveTraces())
	}
}

func TestSpanNilSafety(t *testing.T) {
	var r *SpanRecorder
	sp := r.StartRoot("x")
	sp.SetAttr("k", 1)
	sp.SetTrack("t")
	sp.SetStatus("bad")
	sp.SetTicks(1, 2)
	sp.Event("e", 0, nil)
	sp.ForceKeep()
	sp.End()
	r.AddSpan(SpanRecord{})
	r.ImportSpans([]SpanRecord{{}})
	r.Abandon("none")
	r.SetSampling(4)
	r.SetRingCap(2)
	if r.TakeTrace("none") != nil || r.TraceByID("none") != nil ||
		r.Traces() != nil || r.ActiveTraces() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if err := r.WriteSpansJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteSpansChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil chrome trace = %q", buf.String())
	}
}

func TestSpanHeadSampling(t *testing.T) {
	r := NewSpanRecorder()
	r.SetSampling(3)
	var ids []string
	for i := 0; i < 9; i++ {
		sp := r.StartRoot("experiment")
		ids = append(ids, sp.Context().TraceID)
		sp.End()
	}
	kept := 0
	for _, id := range ids {
		if r.TraceByID(id) != nil {
			kept++
		}
	}
	if kept != 3 {
		t.Fatalf("kept %d of 9 with sample 3, want 3", kept)
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
}

func TestSpanForceKeepOverridesSampling(t *testing.T) {
	r := NewSpanRecorder()
	r.SetSampling(1000)
	r.StartRoot("warm").End() // takes the 1-in-1000 keep slot
	sp := r.StartRoot("experiment")
	sp.ForceKeep()
	sp.SetStatus("crashed")
	sp.End()
	if r.TraceByID(sp.Context().TraceID) == nil {
		t.Fatal("ForceKeep trace was sampled out")
	}
}

func TestSpanRingEviction(t *testing.T) {
	r := NewSpanRecorder()
	r.SetRingCap(2)
	var ids []string
	for i := 0; i < 4; i++ {
		sp := r.StartRoot("experiment")
		ids = append(ids, sp.Context().TraceID)
		sp.End()
	}
	if r.TraceByID(ids[0]) != nil || r.TraceByID(ids[1]) != nil {
		t.Fatal("oldest traces not evicted")
	}
	if r.TraceByID(ids[2]) == nil || r.TraceByID(ids[3]) == nil {
		t.Fatal("newest traces missing")
	}
	traces := r.Traces()
	if len(traces) != 2 || traces[0].ID != ids[3] {
		t.Fatalf("Traces() not newest-first: %v", traces)
	}
}

func TestSpanRemoteTakeAndImport(t *testing.T) {
	master := NewSpanRecorder()
	worker := NewSpanRecorder()

	root := master.StartRoot("experiment")
	ctx := root.Context()

	// Worker side: spans under a wire context buffer without completing.
	wsp := worker.StartSpan("worker", ctx)
	ph := worker.StartSpan("fi-window", wsp.Context())
	ph.End()
	wsp.End()
	if worker.TraceByID(ctx.TraceID) != nil {
		t.Fatal("remote trace completed locally on the worker")
	}
	shipped := worker.TakeTrace(ctx.TraceID)
	if len(shipped) != 2 {
		t.Fatalf("shipped %d spans, want 2", len(shipped))
	}
	if worker.ActiveTraces() != 0 {
		t.Fatal("TakeTrace left the trace active")
	}

	master.ImportSpans(shipped)
	root.End()
	tr := master.TraceByID(ctx.TraceID)
	if tr == nil || len(tr.Spans) != 3 {
		t.Fatalf("stitched trace = %+v", tr)
	}
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, *tr); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateSpansJSONL(&buf); err != nil || n != 3 {
		t.Fatalf("validate stitched: n=%d err=%v", n, err)
	}
}

func TestSpanAbandonCountsDropped(t *testing.T) {
	r := NewSpanRecorder()
	root := r.StartRoot("experiment")
	r.StartSpan("run", root.Context()).End()
	r.Abandon(root.Context().TraceID)
	if r.ActiveTraces() != 0 {
		t.Fatal("abandoned trace still active")
	}
	if r.Dropped() < 2 {
		t.Fatalf("dropped = %d, want >= 2 (one finished + one open span)", r.Dropped())
	}
	// The orphaned root End after abandon must not resurrect the trace.
	root.End()
	if r.TraceByID(root.Context().TraceID) != nil {
		t.Fatal("abandoned trace resurrected by late End")
	}
}

// TestNilTracerIsInert: an untraced run holds a nil recorder and nil
// spans; the calls it makes through them (child spans, contexts,
// events, sinks) are no-ops that record nothing.
func TestNilTracerIsInert(t *testing.T) {
	var r *SpanRecorder
	r.AttachMetrics(NewRegistry())
	r.StreamJSONL(func(Trace) { t.Error("nil recorder streamed a trace") })
	root := r.StartRoot("run")
	if root != nil || root.Context().Valid() || root.TrackName() != "" {
		t.Fatalf("nil recorder opened a live root: %+v", root)
	}
	child := r.StartSpan("fi-window", root.Context())
	child.SetStart(time.Now())
	child.Event("fault.injected", 99, map[string]any{"loc": "exec"})
	child.End()
	child.End()
	r.AddChild(root.Context(), SpanRecord{Name: "walk"})
	root.End()
	if r.Traces() != nil || r.ActiveTraces() != 0 {
		t.Error("nil recorder buffered traces")
	}

	// A live recorder drops a finished child whose parent is a nil span.
	live := NewSpanRecorder()
	live.AddChild(root.Context(), SpanRecord{Name: "orphan", StartNS: 1, EndNS: 2})
	if len(live.Traces()) != 0 || live.ActiveTraces() != 0 {
		t.Errorf("orphan spans recorded: %d traces, %d active", len(live.Traces()), live.ActiveTraces())
	}
}

// TestTracerJSONLStreamValidates: the ring's JSONL dump of several
// traces validates and carries span events with their sim ticks.
func TestTracerJSONLStreamValidates(t *testing.T) {
	r := NewSpanRecorder()
	run := r.StartRoot("run")
	run.Event("fault.injected", 1234, map[string]any{"loc": "exec"})
	win := r.StartSpan("fi-window", run.Context())
	win.SetTicks(1200, 1300)
	win.End()
	run.End()
	r.StartRoot("experiment").End()

	var out bytes.Buffer
	if err := r.WriteSpansJSONL(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	n, err := ValidateSpansJSONL(&out)
	if err != nil {
		t.Fatalf("stream does not validate: %v", err)
	}
	if n != 3 {
		t.Errorf("validated %d spans, want 3", n)
	}
	if !strings.Contains(text, `"name":"fault.injected"`) || !strings.Contains(text, `"tick":1234`) {
		t.Errorf("span event or its tick missing from JSONL:\n%s", text)
	}
}

// TestValidateJSONLRejectsBadEvents: per-record schema checks — a
// record without identity, name or start time, or carrying an unnamed
// event, fails validation; a well-formed record with an event passes.
func TestValidateJSONLRejectsBadEvents(t *testing.T) {
	cases := []struct{ name, line string }{
		{"garbage", "{not json"},
		{"missing span id", `{"traceId":"t","name":"x","startUnixNano":1,"endUnixNano":2}`},
		{"empty name", `{"traceId":"t","spanId":"s1","name":"","startUnixNano":1,"endUnixNano":2}`},
		{"missing start", `{"traceId":"t","spanId":"s1","name":"x","endUnixNano":2}`},
		{"unnamed event", `{"traceId":"t","spanId":"s1","name":"x","startUnixNano":1,"endUnixNano":2,"events":[{"name":"","tsUnixNano":1}]}`},
	}
	for _, tc := range cases {
		if _, err := ValidateSpansJSONL(strings.NewReader(tc.line)); err == nil {
			t.Errorf("%s: validated but should not", tc.name)
		}
	}
	if _, err := ValidateSpansJSONL(strings.NewReader("")); err == nil {
		t.Error("empty trace validated")
	}
	ok := `{"traceId":"t","spanId":"s1","name":"run","startUnixNano":1,"endUnixNano":5,"events":[{"name":"fault.injected","tsUnixNano":3,"tick":7}]}` + "\n"
	if n, err := ValidateSpansJSONL(strings.NewReader(ok)); err != nil || n != 1 {
		t.Errorf("valid span with event rejected: n=%d err=%v", n, err)
	}
}

// TestSpanStreamJSONLSink: the sink receives each finished trace, and
// the JSONL it writes validates.
func TestSpanStreamJSONLSink(t *testing.T) {
	r := NewSpanRecorder()
	var got []Trace
	var sink bytes.Buffer
	r.StreamJSONL(func(tr Trace) {
		got = append(got, tr)
		if err := WriteTraceJSONL(&sink, tr); err != nil {
			t.Fatal(err)
		}
	})
	sp := r.StartRoot("experiment")
	sp.Event("fault.injected", 1234, map[string]any{"loc": "exec"})
	r.StartSpan("fi-window", sp.Context()).End()
	sp.End()
	if len(got) != 1 || got[0].ID != sp.Context().TraceID {
		t.Fatalf("sink got %+v", got)
	}
	if n, err := ValidateSpansJSONL(&sink); err != nil || n != 2 {
		t.Fatalf("streamed JSONL: n=%d err=%v, want 2 valid spans", n, err)
	}
}

// TestSpanDuration: an ended span's record spans the time it was open.
func TestSpanDuration(t *testing.T) {
	r := NewSpanRecorder()
	sp := r.StartRoot("run")
	sp.SetTrack("w1")
	sp.End()
	rec := r.TraceByID(sp.Context().TraceID).Root()
	if rec.StartNS == 0 || rec.DurationNS() < 0 || rec.Track != "w1" {
		t.Errorf("span record = %+v", rec)
	}
}

func TestSpanMetricsCounters(t *testing.T) {
	r := NewSpanRecorder()
	reg := NewRegistry()
	r.AttachMetrics(reg)
	r.SetSampling(2)
	r.StartRoot("a").End() // kept
	r.StartRoot("b").End() // sampled out
	if v := reg.Counter("obs.spans.recorded").Value(); v != 1 {
		t.Fatalf("recorded = %d, want 1", v)
	}
	if v := reg.Counter("obs.spans.dropped").Value(); v != 1 {
		t.Fatalf("dropped counter = %d, want 1", v)
	}
}

func TestValidateSpansJSONLRejectsBadStreams(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"blank lines only": "\n\n",
		"not json":         "not json",
		"missing trace id": `{"spanId":"s1","name":"x","startUnixNano":1,"endUnixNano":2}`,
		"end before start": `{"traceId":"t","spanId":"s1","name":"x","startUnixNano":5,"endUnixNano":2}`,
		"tick rewind":      `{"traceId":"t","spanId":"s1","name":"x","startUnixNano":1,"endUnixNano":2,"startTick":9,"endTick":3}`,
		"dangling parent":  `{"traceId":"t","spanId":"s1","parentSpanId":"ghost","name":"x","startUnixNano":1,"endUnixNano":2}`,
		"two roots": `{"traceId":"t","spanId":"s1","name":"x","startUnixNano":1,"endUnixNano":2}
{"traceId":"t","spanId":"s2","name":"y","startUnixNano":1,"endUnixNano":2}`,
		"duplicate span id": `{"traceId":"t","spanId":"s1","name":"x","startUnixNano":1,"endUnixNano":2}
{"traceId":"t","spanId":"s1","parentSpanId":"s1","name":"y","startUnixNano":1,"endUnixNano":2}`,
	}
	for name, in := range cases {
		if _, err := ValidateSpansJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted bad stream", name)
		}
	}
	ok := `{"traceId":"t","spanId":"s1","name":"run","startUnixNano":1,"endUnixNano":2}` + "\n"
	if n, err := ValidateSpansJSONL(strings.NewReader(ok)); err != nil || n != 1 {
		t.Errorf("valid span rejected: n=%d err=%v", n, err)
	}
}

func TestWriteSpansChromeTraceParses(t *testing.T) {
	r := NewSpanRecorder()
	root := r.StartRoot("experiment")
	root.SetTrack("w1")
	root.Event("fault.injected", 42, map[string]any{"reg": 3})
	ph := r.StartSpan("fi-window", root.Context())
	ph.SetTrack("w1")
	ph.End()
	root.End()

	var buf bytes.Buffer
	if err := r.WriteSpansChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("catapult JSON does not parse: %v", err)
	}
	var slices, instants, meta int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			slices++
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if slices != 2 || instants != 1 || meta == 0 {
		t.Fatalf("slices=%d instants=%d meta=%d", slices, instants, meta)
	}
}

// TestChromeTraceExport: span and event names reach the Chrome export,
// and an event's guest tick survives into its args.
func TestChromeTraceExport(t *testing.T) {
	r := NewSpanRecorder()
	root := r.StartRoot("experiment")
	root.Event("fault.armed", 0, map[string]any{"loc": "int-register"})
	root.Event("fault.injected", 99, nil)
	root.SetAttr("outcome", "SDC")
	root.End()

	var buf bytes.Buffer
	if err := r.WriteSpansChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	names := map[string]bool{}
	for _, e := range events {
		names[e["name"].(string)] = true
	}
	for _, want := range []string{"process_name", "fault.armed", "fault.injected", "experiment"} {
		if !names[want] {
			t.Errorf("missing event %q in chrome trace", want)
		}
	}
	if !strings.Contains(buf.String(), `"tick":99`) {
		t.Error("tick not folded into chrome trace args")
	}
}

func TestTraceWriteText(t *testing.T) {
	r := NewSpanRecorder()
	root := r.StartRoot("experiment")
	root.SetAttr("outcome", "masked")
	kid := r.StartSpan("fi-window", root.Context())
	kid.SetTicks(10, 20)
	kid.End()
	root.End()
	tr := r.TraceByID(root.Context().TraceID)
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace ", "experiment", "fi-window", "ticks 10..20", "outcome=masked"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text timeline missing %q:\n%s", want, out)
		}
	}
}
