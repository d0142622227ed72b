// Span exports: JSONL (with schema validator), Perfetto/Chrome
// catapult JSON with a track per worker, and a human text timeline.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteTraceJSONL writes one trace's spans as JSONL, one SpanRecord per
// line — the OTLP-ish interchange format ValidateSpansJSONL checks.
func WriteTraceJSONL(w io.Writer, t Trace) error {
	enc := json.NewEncoder(w)
	for _, sp := range t.Spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpansJSONL writes every finished trace in the recorder's ring as
// span JSONL, oldest trace first.
func (r *SpanRecorder) WriteSpansJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	traces := r.Traces()
	for i := len(traces) - 1; i >= 0; i-- { // Traces() is newest-first
		if err := WriteTraceJSONL(w, *traces[i]); err != nil {
			return err
		}
	}
	return nil
}

// ValidateSpanRecord checks one span record against the schema:
// identity present, a name, and a non-negative wall-clock interval.
func ValidateSpanRecord(sp SpanRecord) error {
	if sp.TraceID == "" {
		return fmt.Errorf("span %q: missing traceId", sp.Name)
	}
	if sp.SpanID == "" {
		return fmt.Errorf("span %q: missing spanId", sp.Name)
	}
	if sp.Name == "" {
		return fmt.Errorf("span %s/%s: missing name", sp.TraceID, sp.SpanID)
	}
	if sp.StartNS == 0 {
		return fmt.Errorf("span %q: missing startUnixNano", sp.Name)
	}
	if sp.EndNS < sp.StartNS {
		return fmt.Errorf("span %q: endUnixNano %d before startUnixNano %d", sp.Name, sp.EndNS, sp.StartNS)
	}
	if sp.EndTick < sp.StartTick {
		return fmt.Errorf("span %q: endTick %d before startTick %d", sp.Name, sp.EndTick, sp.StartTick)
	}
	for _, ev := range sp.Events {
		if ev.Name == "" {
			return fmt.Errorf("span %q: event with missing name", sp.Name)
		}
	}
	return nil
}

// ValidateSpansJSONL reads a span JSONL stream, validates every line,
// and additionally checks referential integrity: every parentSpanId
// must resolve to a span of the same trace, span IDs must be unique,
// and every trace must have exactly one root. An empty stream is an
// error. Returns the number of spans validated; the error identifies the
// first offending physical line.
func ValidateSpansJSONL(r io.Reader) (int, error) {
	type spanKey struct{ trace, span string }
	seen := make(map[spanKey]bool)
	roots := make(map[string]int)
	parents := make(map[spanKey]spanKey) // child -> parent, checked after the scan
	n, err := ScanLines(r, maxLineBytes, func(lineNo int, raw []byte) error {
		var sp SpanRecord
		if err := json.Unmarshal(raw, &sp); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := ValidateSpanRecord(sp); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		k := spanKey{sp.TraceID, sp.SpanID}
		if seen[k] {
			return fmt.Errorf("line %d: duplicate span id %s in trace %s", lineNo, sp.SpanID, sp.TraceID)
		}
		seen[k] = true
		if sp.ParentID == "" {
			roots[sp.TraceID]++
			if roots[sp.TraceID] > 1 {
				return fmt.Errorf("line %d: trace %s has more than one root span", lineNo, sp.TraceID)
			}
		} else {
			parents[k] = spanKey{sp.TraceID, sp.ParentID}
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	if n == 0 {
		return 0, fmt.Errorf("empty span stream")
	}
	for child, parent := range parents {
		if !seen[parent] {
			return n, fmt.Errorf("span %s in trace %s: parentSpanId %s not found in trace",
				child.span, child.trace, parent.span)
		}
	}
	return n, nil
}

const maxLineBytes = 4 << 20

// WriteSpansChromeTrace writes the recorder's finished traces in the
// Chrome trace_event (catapult) JSON array format that Perfetto and
// chrome://tracing load. Layout: one pid per track (worker/slot), with
// spans as complete ("X") events and span events as instants; args
// carry the trace/span IDs, ticks, status, and attributes so a slice
// click shows the full record.
func (r *SpanRecorder) WriteSpansChromeTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	traces := r.Traces()
	// Assign stable pids to tracks, in first-seen order with "" last.
	trackPID := map[string]int{}
	var tracks []string
	track := func(sp *SpanRecord) string {
		if sp.Track != "" {
			return sp.Track
		}
		return "main"
	}
	for i := len(traces) - 1; i >= 0; i-- {
		for j := range traces[i].Spans {
			tr := track(&traces[i].Spans[j])
			if _, ok := trackPID[tr]; !ok {
				trackPID[tr] = len(tracks) + 1
				tracks = append(tracks, tr)
			}
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	first := true
	emit := func(v map[string]any) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		enc.SetEscapeHTML(false)
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	for _, tr := range tracks {
		if err := emit(map[string]any{
			"ph": "M", "pid": trackPID[tr], "tid": 0, "name": "process_name",
			"args": map[string]any{"name": tr},
		}); err != nil {
			return err
		}
	}
	// tids separate traces inside a track so overlapping experiments on
	// the same worker do not render as nested slices.
	tidByTrace := map[string]int{}
	for i := len(traces) - 1; i >= 0; i-- {
		t := traces[i]
		if _, ok := tidByTrace[t.ID]; !ok {
			tidByTrace[t.ID] = len(tidByTrace)%32 + 1
		}
		for j := range t.Spans {
			sp := &t.Spans[j]
			pid := trackPID[track(sp)]
			tid := tidByTrace[t.ID]
			args := map[string]any{
				"traceId": sp.TraceID,
				"spanId":  sp.SpanID,
			}
			if sp.ParentID != "" {
				args["parentSpanId"] = sp.ParentID
			}
			if sp.Status != "" {
				args["status"] = sp.Status
			}
			if sp.EndTick > sp.StartTick {
				args["startTick"] = sp.StartTick
				args["endTick"] = sp.EndTick
			}
			for k, v := range sp.Attrs {
				args[k] = v
			}
			if err := emit(map[string]any{
				"ph": "X", "pid": pid, "tid": tid, "name": sp.Name, "cat": "span",
				"ts":   float64(sp.StartNS) / 1e3,
				"dur":  float64(sp.EndNS-sp.StartNS) / 1e3,
				"args": args,
			}); err != nil {
				return err
			}
			for _, ev := range sp.Events {
				evArgs := map[string]any{"spanId": sp.SpanID}
				if ev.Tick != 0 {
					evArgs["tick"] = ev.Tick
				}
				for k, v := range ev.Attrs {
					evArgs[k] = v
				}
				if err := emit(map[string]any{
					"ph": "i", "pid": pid, "tid": tid, "name": ev.Name, "cat": "span",
					"ts": float64(ev.TS) / 1e3, "s": "t", "args": evArgs,
				}); err != nil {
					return err
				}
			}
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteText renders the trace as an indented human-readable timeline:
// each span with its offset from the trace start, duration, track,
// status, ticks, and events, children nested under parents.
func (t *Trace) WriteText(w io.Writer) error {
	if t == nil || len(t.Spans) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	root := t.Root()
	t0 := root.StartNS
	children := map[string][]*SpanRecord{}
	for i := range t.Spans {
		sp := &t.Spans[i]
		if sp == root {
			continue
		}
		children[sp.ParentID] = append(children[sp.ParentID], sp)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace %s\n", t.ID)
	var walk func(sp *SpanRecord, depth int)
	walk = func(sp *SpanRecord, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(bw, "%s%-24s %10s  +%s", indent, sp.Name,
			fmtDur(sp.EndNS-sp.StartNS), fmtDur(sp.StartNS-t0))
		if sp.Track != "" {
			fmt.Fprintf(bw, "  [%s]", sp.Track)
		}
		if sp.EndTick > sp.StartTick {
			fmt.Fprintf(bw, "  ticks %d..%d", sp.StartTick, sp.EndTick)
		}
		if sp.Status != "" && sp.Status != "ok" {
			fmt.Fprintf(bw, "  !%s", sp.Status)
		}
		if len(sp.Attrs) > 0 {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprint(bw, "  {")
			for i, k := range keys {
				if i > 0 {
					fmt.Fprint(bw, " ")
				}
				fmt.Fprintf(bw, "%s=%v", k, sp.Attrs[k])
			}
			fmt.Fprint(bw, "}")
		}
		fmt.Fprintln(bw)
		for _, ev := range sp.Events {
			fmt.Fprintf(bw, "%s  · %-22s %10s  +%s", indent, ev.Name, "", fmtDur(ev.TS-t0))
			if ev.Tick != 0 {
				fmt.Fprintf(bw, "  tick %d", ev.Tick)
			}
			if len(ev.Attrs) > 0 {
				fmt.Fprintf(bw, "  %v", ev.Attrs)
			}
			fmt.Fprintln(bw)
		}
		for _, kid := range children[sp.SpanID] {
			walk(kid, depth+1)
		}
	}
	walk(root, 0)
	// Orphans (parent missing, e.g. a partial import) print flat at the end.
	printed := map[string]bool{}
	var mark func(sp *SpanRecord)
	mark = func(sp *SpanRecord) {
		printed[sp.SpanID] = true
		for _, kid := range children[sp.SpanID] {
			mark(kid)
		}
	}
	mark(root)
	for i := range t.Spans {
		sp := &t.Spans[i]
		if !printed[sp.SpanID] {
			fmt.Fprintf(bw, "?  %-24s %10s  +%s (orphan)\n", sp.Name,
				fmtDur(sp.EndNS-sp.StartNS), fmtDur(sp.StartNS-t0))
		}
	}
	return bw.Flush()
}

func fmtDur(ns int64) string {
	switch {
	case ns < 0:
		return fmt.Sprintf("%dns", ns)
	case ns < 10_000:
		return fmt.Sprintf("%dns", ns)
	case ns < 10_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 10_000_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}
