package gemfi

import (
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// overheadUnit is what one benchmark operation of an observer case
// runs.
type overheadUnit string

const (
	// unitRun is one whole pi simulation from boot on the interpreted
	// atomic model: the commit loop every per-instruction observer
	// hooks into.
	unitRun overheadUnit = "run"
	// unitExperiment is four experiments on a checkpoint-backed pi
	// runner in the campaign default configuration: restore, fault
	// window and classification, where the per-experiment
	// instrumentation lives.
	unitExperiment overheadUnit = "experiment"
)

// observerCase is one row of the observer overhead table: a
// configuration and the bound on its cost relative to the unobserved
// baseline of its unit.
type observerCase struct {
	name  string
	unit  overheadUnit
	bound float64
	cfg   func(*SimConfig) // nil: unobserved
	spans bool             // attach a span recorder to the runner
}

// observerTable holds, per unit, the rounds the test times and the
// rows, the unobserved baseline first. "disabled" re-times the
// baseline, so its 1.5x only catches a structural regression (an
// unconditional per-instruction hook), not scheduler noise. Metrics are
// pull-collectors; spans cost a dozen allocations per experiment; an idle taint tracker
// is a counter and three emptiness checks per commit; the profiler does
// dense-array atomic adds; the flight recorder a ring store per commit.
var observerTable = []struct {
	unit   overheadUnit
	rounds int
	cases  []observerCase
}{
	{unitRun, 8, []observerCase{
		{name: "baseline"},
		{name: "disabled", bound: 1.5},
		{name: "metrics", bound: 2.0, cfg: func(c *SimConfig) { c.Metrics = obs.NewRegistry() }},
		{name: "taint", bound: 2.0, cfg: func(c *SimConfig) { c.EnableTaint = true }},
		{name: "profiler", bound: 2.5, cfg: func(c *SimConfig) { c.EnableProfiler = true }},
	}},
	{unitExperiment, 20, []observerCase{
		{name: "baseline"},
		{name: "disabled", bound: 1.5},
		{name: "spans", bound: 2.0, spans: true},
		{name: "flight", bound: 3.0, cfg: func(c *SimConfig) { c.EnableFlight, c.FlightDepth = true, 256 }},
	}},
}

// config is the case's simulator configuration; each call builds fresh
// instruments.
func (c observerCase) config() SimConfig {
	cfg := SimConfig{Model: ModelAtomic, EnableFI: true, MaxInsts: 2_000_000_000}
	if c.unit == unitExperiment {
		cfg = DefaultSimConfig()
		cfg.Model = ModelAtomic // the campaign default
	}
	if c.cfg != nil {
		c.cfg(&cfg)
	}
	return cfg
}

// ops builds the case's unit and returns a source of operations: each
// call does the untimed set-up of the next operation and returns it.
func (c observerCase) ops(tb testing.TB) func() func() {
	w := workloads.MonteCarloPI(workloads.ScaleTest)
	if c.unit == unitRun {
		p, err := w.Build()
		if err != nil {
			tb.Fatal(err)
		}
		return func() func() {
			s := NewSimulator(c.config())
			if err := s.Load(p); err != nil {
				tb.Fatal(err)
			}
			return func() {
				if r := s.Run(); r.Failed() {
					tb.Fatalf("%+v", r)
				}
			}
		}
	}
	cfg := c.config()
	r, err := NewCampaignRunner(w, campaign.RunnerOptions{Cfg: &cfg})
	if err != nil {
		tb.Fatal(err)
	}
	if c.spans {
		r.AttachSpans(obs.NewSpanRecorder(), "bench")
	}
	exps := GenerateUniform(4, campaign.GenConfig{WindowInsts: r.WindowInsts, Seed: 17})
	return func() func() {
		return func() {
			for _, e := range exps {
				r.Run(e)
			}
		}
	}
}

// run times b.N operations.
func (c observerCase) run(b *testing.B) {
	b.ReportAllocs()
	b.StopTimer()
	next := c.ops(b)
	for i := 0; i < b.N; i++ {
		op := next()
		b.StartTimer()
		op()
		b.StopTimer()
	}
}

// BenchmarkObservers times every row of the table.
func BenchmarkObservers(b *testing.B) {
	for _, u := range observerTable {
		for _, c := range u.cases {
			c.unit = u.unit
			b.Run(string(u.unit)+"/"+c.name, c.run)
		}
	}
}

// checkOverhead asserts the bounds of the named rows of unit's table
// against its unobserved baseline. The baseline is timed once, in
// rounds interleaved with the rows' series, so a change in the load
// from other processes (go test runs packages in parallel) lands on
// both sides of every ratio.
func checkOverhead(t *testing.T, unit overheadUnit, names ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("benchmark comparison in -short mode")
	}
	var rounds int
	var cases []observerCase
	for _, u := range observerTable {
		if u.unit != unit {
			continue
		}
		rounds = u.rounds
		cases = append(cases, u.cases[0])
		for _, name := range names {
			for _, c := range u.cases[1:] {
				if c.name == name {
					cases = append(cases, c)
				}
			}
		}
	}
	if len(cases) != len(names)+1 {
		t.Fatalf("%s table lacks a baseline or one of the rows %q", unit, names)
	}
	nexts := make([]func() func(), len(cases))
	for i, c := range cases {
		c.unit = unit
		nexts[i] = c.ops(t)
	}
	total := make([]time.Duration, len(cases))
	for r := 0; r < rounds; r++ {
		for i, next := range nexts {
			op := next()
			start := time.Now()
			op()
			total[i] += time.Since(start)
		}
	}
	t.Logf("%s/baseline: %v per op", unit, total[0]/time.Duration(rounds))
	for i, c := range cases[1:] {
		ratio := float64(total[i+1]) / float64(total[0])
		t.Logf("%s/%s: %.2fx (bound %.1fx)", unit, c.name, ratio, c.bound)
		if ratio > c.bound {
			t.Errorf("%s/%s costs %.2fx the unobserved baseline, over the %.1fx bound", unit, c.name, ratio, c.bound)
		}
	}
}

// TestObsDisabledOverhead bounds metrics on the commit loop, and the
// disabled path.
func TestObsDisabledOverhead(t *testing.T) {
	checkOverhead(t, unitRun, "disabled", "metrics")
}

// TestTaintDisabledOverhead bounds an attached-but-idle taint tracker
// on the commit loop, and the disabled path.
func TestTaintDisabledOverhead(t *testing.T) {
	checkOverhead(t, unitRun, "disabled", "taint")
}

// TestProfilerDisabledOverhead bounds the guest profiler on the commit
// loop, and the disabled path.
func TestProfilerDisabledOverhead(t *testing.T) {
	checkOverhead(t, unitRun, "disabled", "profiler")
}

// TestSpansDisabledOverhead bounds per-experiment span recording, and
// the disabled path.
func TestSpansDisabledOverhead(t *testing.T) {
	checkOverhead(t, unitExperiment, "disabled", "spans")
}

// TestFlightDisabledOverhead bounds the flight recorder per experiment,
// and the disabled path.
func TestFlightDisabledOverhead(t *testing.T) {
	checkOverhead(t, unitExperiment, "disabled", "flight")
}
