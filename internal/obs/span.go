// Span tracing: the one trace stream of the observability layer. A
// single run is one span tree; so is every experiment of a campaign
// spread across gemfi serve, the fork server, and NoW workers. A span
// tree carries a durable identity (trace ID) that follows one experiment
// from HTTP submit to verdict, a parent/child hierarchy so worker-side
// phases stitch under the master's experiment span, and dual timestamps
// (wall-clock nanoseconds plus guest ticks) so host latency and
// simulated time stay correlated.
//
// Design points, mirroring the rest of the package:
//
//   - Disabled means free. A nil *SpanRecorder hands out nil *Span, and
//     every Span method is nil-receiver safe, so instrumented code never
//     branches on "is tracing on".
//   - Bounded memory. Spans accumulate per trace only while the trace is
//     live (one experiment in flight); finished traces land in a fixed
//     ring. Head sampling keeps 1-in-N traces on million-experiment
//     campaigns, but a trace marked ForceKeep (crashed / SDC
//     experiments) is always retained. Everything dropped is counted.
//   - Wire friendly. SpanRecord is plain JSON; a worker exports the
//     finished spans of a trace with TakeTrace and the master stitches
//     them back with ImportSpans.
package obs

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext is the portable identity of a span: enough to parent a
// child anywhere, including across the NoW wire protocol.
type SpanContext struct {
	TraceID string `json:"traceId,omitempty"`
	SpanID  string `json:"spanId,omitempty"`
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.TraceID != "" && c.SpanID != "" }

// SpanEvent is a point-in-time annotation inside a span — fault
// lifecycle transitions (fault.injected, fault.squashed, ...) use it.
type SpanEvent struct {
	Name  string         `json:"name"`
	TS    int64          `json:"tsUnixNano"`
	Tick  uint64         `json:"tick,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// SpanRecord is the export form of one finished span: what lands in the
// JSONL stream, the ring, and the NoW result message.
type SpanRecord struct {
	TraceID   string         `json:"traceId"`
	SpanID    string         `json:"spanId"`
	ParentID  string         `json:"parentSpanId,omitempty"`
	Name      string         `json:"name"`
	Track     string         `json:"track,omitempty"` // render lane: worker/slot name
	StartNS   int64          `json:"startUnixNano"`
	EndNS     int64          `json:"endUnixNano"`
	StartTick uint64         `json:"startTick,omitempty"`
	EndTick   uint64         `json:"endTick,omitempty"`
	Status    string         `json:"status,omitempty"` // "" or "ok" is success
	Attrs     map[string]any `json:"attrs,omitempty"`
	Events    []SpanEvent    `json:"events,omitempty"`
}

// DurationNS returns the span's wall-clock length.
func (r *SpanRecord) DurationNS() int64 { return r.EndNS - r.StartNS }

// PhaseSlice is one contiguous segment of an experiment's timeline.
// The simulator cuts its run into adjacent slices (fast-forward,
// pre-window, fi-window, post-window) so their durations tile the run
// exactly; the campaign runner adds restore/classify/taint around them.
type PhaseSlice struct {
	Name      string
	StartNS   int64
	EndNS     int64
	StartTick uint64
	EndTick   uint64
}

// Trace is a finished span tree, as held in the recorder's ring.
type Trace struct {
	ID    string       `json:"traceId"`
	Spans []SpanRecord `json:"spans"`
}

// Root returns the parentless span of the trace, or nil. Imported
// worker spans always have parents, so the root is the local one.
func (t *Trace) Root() *SpanRecord {
	if t == nil {
		return nil
	}
	for i := range t.Spans {
		if t.Spans[i].ParentID == "" {
			return &t.Spans[i]
		}
	}
	if len(t.Spans) > 0 {
		return &t.Spans[0]
	}
	return nil
}

// Span is a live, in-progress span. All methods are safe on a nil
// receiver (the disabled path) and safe for concurrent use.
type Span struct {
	rec *SpanRecorder

	mu    sync.Mutex
	data  SpanRecord
	ended bool
}

// Context returns the span's portable identity (zero if s is nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.data.TraceID, SpanID: s.data.SpanID}
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]any, 8)
	}
	s.data.Attrs[key] = v
	s.mu.Unlock()
}

// SetStart moves the span's start to t: for a span opened after the
// work it covers began, such as a trigger-walk member, known only once
// its walk segment has run.
func (s *Span) SetStart(t time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.StartNS = t.UnixNano()
	s.mu.Unlock()
}

// SetTrack names the render lane (worker or slot) the span belongs to.
func (s *Span) SetTrack(track string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Track = track
	s.mu.Unlock()
}

// TrackName returns the span's render lane ("" if unset or s is nil).
func (s *Span) TrackName() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	tr := s.data.Track
	s.mu.Unlock()
	return tr
}

// SetStatus records a terminal status; "" or "ok" means success.
func (s *Span) SetStatus(status string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Status = status
	s.mu.Unlock()
}

// SetTicks stamps the guest-tick interval the span covers.
func (s *Span) SetTicks(start, end uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.StartTick, s.data.EndTick = start, end
	s.mu.Unlock()
}

// Event appends a point event (tick 0 omits the guest timestamp).
func (s *Span) Event(name string, tick uint64, attrs map[string]any) {
	if s == nil {
		return
	}
	ev := SpanEvent{Name: name, TS: time.Now().UnixNano(), Tick: tick, Attrs: attrs}
	s.mu.Lock()
	s.data.Events = append(s.data.Events, ev)
	s.mu.Unlock()
}

// ForceKeep marks the whole trace as exempt from head sampling: it is
// retained even when 1-in-N sampling would drop it. Crashed and SDC
// experiments call this so the interesting runs always keep their tree.
func (s *Span) ForceKeep() {
	if s == nil {
		return
	}
	s.rec.forceKeep(s.data.TraceID)
}

// End finishes the span and hands it to the recorder. The trace
// completes (and is kept or dropped per sampling) when its root ends.
// End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.EndNS = time.Now().UnixNano()
	rec := s.data
	s.mu.Unlock()
	s.rec.finish(rec)
}

// activeTrace buffers the spans of one in-flight trace.
type activeTrace struct {
	sampled   bool // head-sampling verdict, decided at root start
	forceKeep bool
	remote    bool // created by StartSpan under a wire context (worker side)
	open      int  // locally started, not yet ended spans
	spans     []SpanRecord
}

// SpanRecorder owns span recording for one process: sampling decisions,
// in-flight buffers, the finished-trace ring, and the JSONL stream.
// A nil *SpanRecorder is a valid, free, disabled recorder.
type SpanRecorder struct {
	mu      sync.Mutex
	sampleN int
	ringCap int
	headN   uint64
	active  map[string]*activeTrace
	recent  []*Trace // finished traces, oldest first
	byID    map[string]*Trace
	sink    func(Trace) // optional stream, invoked outside mu on trace completion

	dropped   atomic.Uint64
	droppedC  *Counter
	recordedC *Counter
}

// NewSpanRecorder returns a recorder that keeps every trace (sample 1)
// and retains the most recent 256 finished traces.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{
		sampleN: 1,
		ringCap: 256,
		active:  make(map[string]*activeTrace),
		byID:    make(map[string]*Trace),
	}
}

// SetSampling keeps 1-in-n traces (head sampling, decided when the root
// span starts). ForceKeep overrides it per trace. n <= 1 keeps all.
func (r *SpanRecorder) SetSampling(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if n < 1 {
		n = 1
	}
	r.sampleN = n
	r.mu.Unlock()
}

// SetRingCap bounds the finished-trace ring (minimum 1).
func (r *SpanRecorder) SetRingCap(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if n < 1 {
		n = 1
	}
	r.ringCap = n
	for len(r.recent) > r.ringCap {
		r.evictLocked()
	}
	r.mu.Unlock()
}

// AttachMetrics exposes the recorder's accounting on a registry:
// obs.spans.dropped (sampled-out or abandoned spans) and
// obs.spans.recorded (spans kept in the ring / streamed).
func (r *SpanRecorder) AttachMetrics(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mu.Lock()
	r.droppedC = reg.Counter("obs.spans.dropped")
	r.recordedC = reg.Counter("obs.spans.recorded")
	r.mu.Unlock()
}

// StreamJSONL invokes fn with every kept trace as it completes; the
// CLI uses it to append span JSONL to a file as the campaign runs.
// fn runs on the goroutine that ends the trace's root span.
func (r *SpanRecorder) StreamJSONL(fn func(Trace)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = fn
	r.mu.Unlock()
}

// StartRoot opens a new trace with a root span of the given name.
func (r *SpanRecorder) StartRoot(name string) *Span {
	if r == nil {
		return nil
	}
	traceID := newSpanID()
	r.mu.Lock()
	r.headN++
	sampled := r.sampleN <= 1 || (r.headN-1)%uint64(r.sampleN) == 0
	r.active[traceID] = &activeTrace{sampled: sampled, open: 1}
	r.mu.Unlock()
	return &Span{rec: r, data: SpanRecord{
		TraceID: traceID,
		SpanID:  newSpanID(),
		Name:    name,
		StartNS: time.Now().UnixNano(),
	}}
}

// StartSpan opens a child span under parent. An invalid parent starts a
// new root trace instead. A parent from another process (the NoW wire)
// opens a remote trace buffer: its spans are exported with TakeTrace
// rather than completed locally.
func (r *SpanRecorder) StartSpan(name string, parent SpanContext) *Span {
	if r == nil {
		return nil
	}
	if !parent.Valid() {
		sp := r.StartRoot(name)
		return sp
	}
	r.mu.Lock()
	at := r.active[parent.TraceID]
	if at == nil {
		// Remote parent: buffer spans for TakeTrace, never sample out
		// locally — the keep/drop decision belongs to the root's owner.
		at = &activeTrace{sampled: true, remote: true}
		r.active[parent.TraceID] = at
	}
	at.open++
	r.mu.Unlock()
	return &Span{rec: r, data: SpanRecord{
		TraceID:  parent.TraceID,
		SpanID:   newSpanID(),
		ParentID: parent.SpanID,
		Name:     name,
		StartNS:  time.Now().UnixNano(),
	}}
}

// AddSpan records a fully-formed span (already ended) into its trace.
// The simulator uses it to emit retrospective phase slices; ImportSpans
// uses it for worker records. It does not affect trace completion.
func (r *SpanRecorder) AddSpan(rec SpanRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if at := r.active[rec.TraceID]; at != nil {
		at.spans = append(at.spans, rec)
		r.mu.Unlock()
		return
	}
	if t := r.byID[rec.TraceID]; t != nil {
		// Late arrival after the trace completed (e.g. a straggler
		// worker result): append in place.
		t.Spans = append(t.Spans, rec)
		r.mu.Unlock()
		return
	}
	r.dropped.Add(1)
	c := r.droppedC
	r.mu.Unlock()
	c.Add(1)
}

// AddChild is AddSpan plus identity: it assigns a fresh span ID under
// parent and fills the trace ID from it.
func (r *SpanRecorder) AddChild(parent SpanContext, rec SpanRecord) {
	if r == nil || !parent.Valid() {
		return
	}
	rec.TraceID = parent.TraceID
	rec.ParentID = parent.SpanID
	rec.SpanID = newSpanID()
	r.AddSpan(rec)
}

// ImportSpans merges span records shipped from another process (a NoW
// worker) into their trace.
func (r *SpanRecorder) ImportSpans(spans []SpanRecord) {
	for _, sp := range spans {
		r.AddSpan(sp)
	}
}

// TakeTrace removes and returns the buffered spans of a trace without
// completing it — the worker-side export before shipping results to the
// master. Open spans (should not happen) are discarded.
func (r *SpanRecorder) TakeTrace(traceID string) []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	at := r.active[traceID]
	if at == nil {
		r.mu.Unlock()
		return nil
	}
	delete(r.active, traceID)
	spans := at.spans
	r.mu.Unlock()
	return spans
}

// Abandon discards an in-flight trace — the master calls it when a
// worker dies mid-experiment so the half-recorded tree is dropped (and
// counted) rather than leaking in the active set forever.
func (r *SpanRecorder) Abandon(traceID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	at := r.active[traceID]
	if at == nil {
		r.mu.Unlock()
		return
	}
	delete(r.active, traceID)
	n := uint64(len(at.spans) + at.open)
	r.dropped.Add(n)
	c := r.droppedC
	r.mu.Unlock()
	c.Add(n)
}

// forceKeep exempts an in-flight trace from sampling.
func (r *SpanRecorder) forceKeep(traceID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if at := r.active[traceID]; at != nil {
		at.forceKeep = true
	}
	r.mu.Unlock()
}

// finish records an ended span. When the last locally-open span of a
// non-remote trace ends (the root, in practice), the trace completes:
// kept traces enter the ring and the JSONL stream, sampled-out traces
// are dropped and counted.
func (r *SpanRecorder) finish(rec SpanRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	at := r.active[rec.TraceID]
	if at == nil {
		// Trace already completed or abandoned; try the ring, else drop.
		if t := r.byID[rec.TraceID]; t != nil {
			t.Spans = append(t.Spans, rec)
			r.mu.Unlock()
			return
		}
		r.dropped.Add(1)
		c := r.droppedC
		r.mu.Unlock()
		c.Add(1)
		return
	}
	at.spans = append(at.spans, rec)
	at.open--
	if at.open > 0 || at.remote {
		// Remote traces never complete locally; they wait for TakeTrace.
		r.mu.Unlock()
		return
	}
	delete(r.active, rec.TraceID)
	if !at.sampled && !at.forceKeep {
		n := uint64(len(at.spans))
		r.dropped.Add(n)
		c := r.droppedC
		r.mu.Unlock()
		c.Add(n)
		return
	}
	t := &Trace{ID: rec.TraceID, Spans: at.spans}
	r.recent = append(r.recent, t)
	r.byID[t.ID] = t
	for len(r.recent) > r.ringCap {
		r.evictLocked()
	}
	rc, sink := r.recordedC, r.sink
	r.mu.Unlock()
	rc.Add(uint64(len(t.Spans)))
	if sink != nil {
		sink(*t)
	}
}

// evictLocked drops the oldest finished trace. Caller holds r.mu.
func (r *SpanRecorder) evictLocked() {
	old := r.recent[0]
	r.recent = r.recent[1:]
	delete(r.byID, old.ID)
}

// TraceByID returns a finished trace from the ring, or nil.
func (r *SpanRecorder) TraceByID(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	t := r.byID[id]
	r.mu.Unlock()
	return t
}

// Traces returns the finished traces, newest first.
func (r *SpanRecorder) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*Trace, len(r.recent))
	for i, t := range r.recent {
		out[len(out)-1-i] = t
	}
	r.mu.Unlock()
	return out
}

// ActiveTraces reports how many traces are currently in flight.
func (r *SpanRecorder) ActiveTraces() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	n := len(r.active)
	r.mu.Unlock()
	return n
}

// Dropped reports spans discarded by sampling, abandonment, or
// late/orphan arrival.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// newSpanID returns a 16-hex-digit random identifier. A process-wide
// splitmix64 sequence seeded from the clock and PID keeps IDs unique
// across the master and its workers without coordination.
func newSpanID() string {
	return fmt.Sprintf("%016x", splitmix64(idSeq.Add(0x9e3779b97f4a7c15)))
}

var idSeq = func() *atomic.Uint64 {
	var v atomic.Uint64
	v.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
	return &v
}()

func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}
