package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if m := median(xs); m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
	if q1, q3 := quartiles(xs); q1 != 3 || q3 != 7 {
		t.Errorf("quartiles = %v, %v, want 3, 7", q1, q3)
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", m)
	}
	if q := quantile([]float64{0, 10}, 0.99); !near(q, 9.9) {
		t.Errorf("p99 of {0,10} = %v, want 9.9", q)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %v, want 0", m)
	}
	if xs[0] != 9 {
		t.Error("quantile reordered its argument")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); !near(g, 4) {
		t.Errorf("geomean(2, 8) = %v, want 4", g)
	}
	if g := geomean([]float64{3, 0}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
}

func TestStatRate(t *testing.T) {
	s := statOf([]float64{1, 2, 4}, "s").rate(8, "1/s")
	if s.Value != 4 || s.Q1 != 8.0/3 || s.Q3 != 8.0/1.5 || s.N != 3 || s.Unit != "1/s" {
		t.Errorf("rate = %+v", s)
	}
	if s.Q1 > s.Value || s.Value > s.Q3 {
		t.Errorf("rate quartiles out of order: %+v", s)
	}
}

func TestDigestWords(t *testing.T) {
	a, b := digestWords([]uint64{1, 2, 3}), digestWords([]uint64{1, 2, 4})
	if a == b || len(a) != 16 || a != digestWords([]uint64{1, 2, 3}) {
		t.Errorf("digests %q, %q", a, b)
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100 holds a 10..40 and b 50..90; b holds a 60..70.
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 50, EndNs: 90},
		{ID: 4, Parent: 3, Name: "a", StartNs: 60, EndNs: 70},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 30, "a": 40, "b": 30}
	var sum time.Duration
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, self[name], d)
		}
		sum += self[name]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	tr.timed("outer", func() {
		tr.timed("inner", func() {})
		resume := tr.pause()
		tr.timed("unseen", func() {})
		resume()
	})
	var names []string
	for _, s := range tr.spans {
		names = append(names, s.Name)
		if s.EndNs < s.StartNs {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if got := len(names); got != 3 || names[0] != "outer" || names[1] != "inner" || names[2] != "tracer-paused" {
		t.Fatalf("spans %v, want outer, inner, tracer-paused", names)
	}
	if tr.spans[1].Parent != 1 || tr.spans[2].Parent != 1 || tr.spans[0].Parent != 0 {
		t.Errorf("parents %d %d %d", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent)
	}
	var none *tracer
	if d := none.timed("x", func() {}); d < 0 {
		t.Error("nil tracer must still measure")
	}
}

func TestCheckCampaign(t *testing.T) {
	e := &expectations{Campaign: map[string]campExpect{"k": {Outcomes: "1234", Insts: 10}}}
	if n, msg := e.checkCampaign("k", campExpect{Outcomes: "1234", Insts: 10}); n != 0 || msg != "" {
		t.Errorf("match reported %d, %q", n, msg)
	}
	if n, _ := e.checkCampaign("k", campExpect{Outcomes: "1334", Insts: 10}); n != 1 {
		t.Errorf("one wrong outcome reported %d failures", n)
	}
	if n, _ := e.checkCampaign("k", campExpect{Outcomes: "1234", Insts: 11}); n != 1 {
		t.Errorf("wrong instruction total reported %d failures", n)
	}
	if n, _ := e.checkCampaign("missing", campExpect{Outcomes: "12"}); n != 2 {
		t.Errorf("missing expectation reported %d failures, want all 2", n)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables in
// step: names, units, directions, bounds, workloads.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || len(b.Command) != 2 || b.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %v over paths %v, want benchmark/run.sh over benchmark", b.Command, b.Paths)
	}
	if b.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, the rep counts are sized for %d", b.RunSeconds, nominalSeconds)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, the harness has %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d is %q (%q), the harness has %q (%q)", i, w.Name, w.Why, workloadDefs[i].Name, workloadDefs[i].Why)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics, the harness has %d", len(got), kind, len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				t.Errorf("%s metric %d is %+v, the harness has %+v", kind, i, m, d)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
}

// TestQuickSmoke runs all four workloads, untraced and traced, at the
// cut-down sizes: it fails when the pinned API drifts, when a simulated
// statistic no longer matches expected.json, or when a metric goes
// missing.
func TestQuickSmoke(t *testing.T) {
	exp, err := loadExpectations(false)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	measured := make(map[string]bool)
	for _, def := range workloadDefs {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(def, 7, quickSizes(), traced, exp, out)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Ops == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", def.Name, traced, rep.Failed, rep.Ops, rep.Failures)
			}
			res := resultOf(rep)
			if !traced {
				for _, m := range endToEnd {
					if v := res.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want a positive number", def.Name, m.Name, v)
					}
				}
				continue
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics in the result, want %d", def.Name, len(res.Metrics), len(perLayer))
			}
			for name := range rep.Metrics {
				measured[name] = true
			}
			if math.Abs(rep.SelfS-rep.WallS) > 0.02*rep.WallS {
				t.Errorf("%s: self times sum to %.4f s, the run took %.4f s", def.Name, rep.SelfS, rep.WallS)
			}
			data, err := os.ReadFile(filepath.Join(out, "trace-"+def.Name+".jsonl"))
			if err != nil || len(data) == 0 {
				t.Errorf("%s: span file: %v, %d bytes", def.Name, err, len(data))
			}
		}
	}
	// The cut-down sizes run two of the four sim guests.
	measured["bbt.mips.dct"], measured["bbt.mips.knapsack"] = true, true
	for _, m := range perLayer {
		if !measured[m.Name] {
			t.Errorf("no workload's traced run measured %s", m.Name)
		}
	}
}
