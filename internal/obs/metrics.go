// Package obs is the observability layer of the simulator: a
// low-overhead metrics registry (counters, gauges, histograms and
// pull-collectors) and span trees (span.go) carrying run phases and the
// fault-injection lifecycle, with JSONL output and Chrome trace_event
// export.
//
// It plays the role gem5's pervasive Stats framework plays for gem5: every
// subsystem (CPU models, caches, FI engine, campaign drivers, NoW
// master/workers) registers its counters here instead of keeping ad-hoc
// fields, and a run can dump the whole registry at exit.
//
// Design rules:
//
//   - Disabled means free. Every instrument is nil-receiver safe: a nil
//     *Registry hands out nil *Counter / *Gauge / *Histogram, and all of
//     their methods are no-ops on nil. Hot paths keep a single pointer and
//     pay one predictable branch when observability is off.
//   - Hot simulator counters (committed instructions, cache hits) are NOT
//     incremented through the registry; the owning component keeps its
//     plain field and registers a pull-collector (RegisterFunc) that reads
//     it at dump time. The commit loop therefore costs exactly the same
//     with and without a registry attached.
//   - Instruments that are written from multiple goroutines (campaign
//     pool, NoW master) use atomics and are safe for concurrent use.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter ignores all updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value. A nil Gauge ignores all updates.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates a distribution of non-negative values in
// power-of-two buckets (bucket i counts values v with bits.Len64(v) == i,
// i.e. [2^(i-1), 2^i)). It tracks count, sum, min and max exactly; the
// buckets give the shape. A nil Histogram ignores all updates.
type Histogram struct {
	mu       sync.Mutex
	count    uint64
	sum      float64
	min, max float64
	buckets  [65]uint64
	// exemplars holds, per bucket, the most recent exemplar label
	// (a span trace ID) observed into that bucket — a fat bucket then
	// links to a concrete experiment's span tree.
	exemplars [65]string
}

// Observe records one value (negative values clamp to 0).
func (h *Histogram) Observe(v float64) {
	h.ObserveEx(v, "")
}

// ObserveEx records one value with an exemplar label — by convention a
// span trace ID — kept per bucket (last write wins) so a histogram
// bucket links back to a concrete sample trace.
func (h *Histogram) ObserveEx(v float64, exemplar string) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	b := bits.Len64(uint64(v))
	h.buckets[b]++
	if exemplar != "" {
		h.exemplars[b] = exemplar
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state. The
// bucket slices are parallel and ordered by ascending bound, so every
// rendering of the same snapshot is identical.
type HistogramSnapshot struct {
	Count    uint64    `json:"count"`
	Sum      float64   `json:"sum"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Mean     float64   `json:"mean"`
	Buckets  []uint64  `json:"buckets,omitempty"`
	BucketLo []float64 `json:"bucket_lo,omitempty"`
	BucketHi []float64 `json:"bucket_hi,omitempty"` // exclusive upper bound
	// Exemplars is parallel to Buckets: the most recent exemplar label
	// (sample trace ID) per bucket, "" where none was observed.
	Exemplars []string `json:"exemplars,omitempty"`
}

// Snapshot copies the histogram state (zero snapshot on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s.Count, s.Sum, s.Min, s.Max = h.count, h.sum, h.min, h.max
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	anyExemplar := false
	for i, b := range h.buckets {
		if b == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(uint64(1) << (i - 1))
		}
		s.Buckets = append(s.Buckets, b)
		s.BucketLo = append(s.BucketLo, lo)
		s.BucketHi = append(s.BucketHi, float64(uint64(1)<<i))
		s.Exemplars = append(s.Exemplars, h.exemplars[i])
		if h.exemplars[i] != "" {
			anyExemplar = true
		}
	}
	if !anyExemplar {
		s.Exemplars = nil
	}
	return s
}

// Metric is one row of a registry dump.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // counter | gauge | histogram | func
	Value float64 `json:"value"`

	// Histogram detail (Kind == "histogram" only).
	Count uint64  `json:"count,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	// Hist carries the full bucket breakdown (Kind == "histogram").
	Hist *HistogramSnapshot `json:"hist,omitempty"`
}

// Registry names and owns instruments. A nil *Registry is the disabled
// registry: it hands out nil instruments and dumps nothing. Instrument
// lookup is idempotent — asking for the same name twice returns the same
// instrument — so components can re-register across checkpoint restores.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers a pull-collector: fn is called at Snapshot time
// to read a value that lives in the owning component (e.g. the core's
// committed-instruction count). Re-registering a name replaces the
// collector, which is what components do after a checkpoint restore.
func (r *Registry) RegisterFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Snapshot dumps every instrument, sorted by name. Pull-collectors are
// invoked; a nil registry returns nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.funcs))
	for name, c := range r.counters {
		ms = append(ms, Metric{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		ms = append(ms, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	r.mu.Unlock()

	// Histograms and collectors run outside the registry lock: collectors
	// may themselves take locks, and histograms have their own mutex.
	for name, h := range hists {
		s := h.Snapshot()
		ms = append(ms, Metric{
			Name: name, Kind: "histogram", Value: s.Sum,
			Count: s.Count, Min: s.Min, Max: s.Max, Mean: s.Mean,
			Hist: &s,
		})
	}
	for name, fn := range funcs {
		ms = append(ms, Metric{Name: name, Kind: "func", Value: fn()})
	}
	// Name, then kind: a dump is byte-identical across runs even if two
	// kinds share a name.
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Name != ms[j].Name {
			return ms[i].Name < ms[j].Name
		}
		return ms[i].Kind < ms[j].Kind
	})
	return ms
}

// WriteText renders a gem5-stats-style plain text dump: rows sorted by
// (name, kind), histogram buckets in ascending-bound order — the output
// for a given registry state is byte-identical across runs.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		var err error
		if m.Kind == "histogram" {
			_, err = fmt.Fprintf(w, "%-44s count=%d mean=%.3f min=%.3f max=%.3f sum=%.3f\n",
				m.Name, m.Count, m.Mean, m.Min, m.Max, m.Value)
			if err == nil && m.Hist != nil {
				for i, b := range m.Hist.Buckets {
					_, err = fmt.Fprintf(w, "%-44s %d\n",
						fmt.Sprintf("  %s::[%g,%g)", m.Name, m.Hist.BucketLo[i], m.Hist.BucketHi[i]), b)
					if err != nil {
						break
					}
				}
			}
		} else if m.Value == math.Trunc(m.Value) && math.Abs(m.Value) < 1e15 {
			_, err = fmt.Fprintf(w, "%-44s %d\n", m.Name, int64(m.Value))
		} else {
			_, err = fmt.Fprintf(w, "%-44s %g\n", m.Name, m.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the dump as a JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	ms := r.Snapshot()
	if ms == nil {
		ms = []Metric{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ms)
}
