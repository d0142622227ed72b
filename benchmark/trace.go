package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded interval around a call into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"` // since the tracer's epoch
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

// tracer records spans around the harness's calls into the system. It is
// used from the harness's main goroutine only, so parenting is a stack.
// A nil tracer records nothing; timed still measures.
type tracer struct {
	epoch    time.Time
	workload string
	rep      int
	on       bool // false inside the untraced comparison reps of a traced run
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload, on: true}
}

func (t *tracer) setRep(rep int) {
	if t != nil {
		t.rep = rep
	}
}

// pause stops recording until the returned function is called. The
// paused time is kept as one span, so that it does not read as the self
// time of whatever encloses it.
func (t *tracer) pause() (resume func()) {
	if t == nil {
		return func() {}
	}
	end := t.begin("tracer-paused")
	t.on = false
	return func() {
		t.on = true
		end()
	}
}

// begin opens a span and returns the function that closes it and reports
// how long it was open. The measurement is the same with and without a
// tracer, two clock reads; a tracer that is on also keeps the span.
func (t *tracer) begin(name string) (end func() time.Duration) {
	start := time.Now()
	if t == nil || !t.on {
		return func() time.Duration { return time.Since(start) }
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), Workload: t.workload, Rep: t.rep,
	})
	t.stack = append(t.stack, id)
	return func() time.Duration {
		stop := time.Now()
		t.spans[id-1].EndNs = stop.Sub(t.epoch).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
		return stop.Sub(start)
	}
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(name string, fn func()) time.Duration {
	end := t.begin(name)
	fn()
	return end()
}

// selfTimes returns, per span name, the total time spent in spans of
// that name outside their child spans.
func selfTimes(spans []span) map[string]time.Duration {
	self := make([]int64, len(spans)+1)
	for _, s := range spans {
		d := s.EndNs - s.StartNs
		self[s.ID] += d
		self[s.Parent] -= d
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(self[s.ID])
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedNames lists the keys of a self-time table, largest first.
func sortedNames(m map[string]time.Duration) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if m[names[i]] != m[names[j]] {
			return m[names[i]] > m[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
