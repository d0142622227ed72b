package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// simGuests are the guests of the two sim workloads: translated they
// span 25 (canneal, pointer chasing) to 125 Minst/s (pi, one hot loop).
var simGuests = []string{"dct", "pi", "knapsack", "canneal"}

// simConf is one simulator configuration. All atomic variants must
// retire the same instructions, so they share the model's expectation.
type simConf struct {
	name string
	cfg  sim.Config
}

var (
	confBBT    = simConf{"atomic", sim.Config{Model: sim.ModelAtomic, EnableFI: true, EnableBlockTranslation: true}}
	confInterp = simConf{"atomic-interp", sim.Config{Model: sim.ModelAtomic, EnableFI: true}}
	confNoFI   = simConf{"atomic-nofi", sim.Config{Model: sim.ModelAtomic}}
	confCold   = simConf{"atomic-cold", sim.Config{Model: sim.ModelAtomic, EnableFI: true, DisableFastPath: true}}
	confTiming = simConf{"timing", sim.Config{Model: sim.ModelTiming, EnableFI: true}}
	confPipe   = simConf{"pipelined", sim.Config{Model: sim.ModelPipelined, EnableFI: true}}
	confFlight = simConf{"pipelined-flight", sim.Config{Model: sim.ModelPipelined, EnableFI: true, EnableFlight: true}}
	confProf   = simConf{"pipelined-prof", sim.Config{Model: sim.ModelPipelined, EnableFI: true, EnableProfiler: true}}
	confTaint  = simConf{"pipelined-taint", sim.Config{Model: sim.ModelPipelined, EnableFI: true, EnableTaint: true}}
)

// simCell is one (guest, configuration) pair and its samples.
type simCell struct {
	guest string
	conf  simConf
	// fresh marks a first-result cell: each rep starts from
	// workloads.ByName, so the cold start is timed as a user sees it.
	fresh bool

	w      *workloads.Workload
	golden *workloads.Result // nil: no verification run was made for this guest
	got    simExpect         // the first rep's statistics; every rep must agree

	secs    []float64 // seconds in Run, one per rep
	secsOff []float64 // the same for the reps made with the tracer paused
	first   []float64 // cold-start seconds (fresh cell only)
}

func (c *simCell) label() string { return c.guest + "/" + c.conf.name }

func (c *simCell) all() []float64 { return append(append([]float64(nil), c.secs...), c.secsOff...) }

func (c *simCell) mips() float64 { return float64(c.got.Insts) / median(c.all()) / 1e6 }

func cellsOf(guests []string, confs ...simConf) []*simCell {
	var cells []*simCell
	for _, g := range guests {
		for _, cf := range confs {
			cells = append(cells, &simCell{guest: g, conf: cf})
		}
	}
	return cells
}

// loadGuest compiles a guest from mini-C through a fresh Workload value
// (Build caches per value), counting the compile time.
func (e *env) loadGuest(name string) (*workloads.Workload, time.Duration, error) {
	var w *workloads.Workload
	var err error
	d := e.tr.timed("workloads.ByName", func() { w, err = workloads.ByName(name, e.sz.scale) })
	if err != nil {
		return nil, d, err
	}
	build := e.tr.timed("Workload.Build", func() { _, err = w.Build() })
	e.compileSecs = append(e.compileSecs, build.Seconds())
	return w, d + build, err
}

// newSim wires a simulator and loads the guest, counting the time.
func (e *env) newSim(w *workloads.Workload, cfg sim.Config) (*sim.Simulator, time.Duration, error) {
	p, err := w.Build() // cached
	if err != nil {
		return nil, 0, err
	}
	var s *sim.Simulator
	d := e.tr.timed("sim.New", func() { s = sim.New(cfg) })
	d += e.tr.timed("Simulator.Load", func() { err = s.Load(p) })
	e.loadSecs = append(e.loadSecs, d.Seconds())
	return s, d, err
}

// checkRun verifies one finished guest run: clean exit, output graded
// bit-exact against the verification run, and simulated statistics equal
// to expected.json and to every other rep of the cell.
func (e *env) checkRun(c *simCell, w *workloads.Workload, s *sim.Simulator, r sim.RunResult) (res *workloads.Result, problem string) {
	if !r.Exited || r.ExitStatus != 0 {
		return nil, fmt.Sprintf("%s: run did not exit cleanly: %+v", c.label(), r)
	}
	var err error
	e.tr.timed("workloads.Extract", func() { res, err = workloads.Extract(w, s) })
	if err != nil {
		return nil, fmt.Sprintf("%s: %v", c.label(), err)
	}
	res.ExitStatus = r.ExitStatus
	var words []uint64
	for _, spec := range w.Outputs {
		words = append(words, res.Data[spec.Symbol]...)
	}
	got := simExpect{Insts: r.Insts, Ticks: r.Ticks, Exit: r.ExitStatus, Digest: digestWords(words)}
	if c.golden != nil {
		var grade workloads.Grade
		e.tr.timed("Workload.Classify", func() { grade = w.Classify(c.golden, res) })
		if grade != workloads.GradeStrict {
			return res, fmt.Sprintf("%s: output graded %v, want bit-exact", c.label(), grade)
		}
	}
	if c.got == (simExpect{}) {
		c.got = got
		return res, e.exp.checkSim(fmt.Sprintf("sim/%s/%s/%s", e.sz.scaleName(), c.guest, c.conf.cfg.Model), got)
	}
	if got != c.got {
		return res, fmt.Sprintf("%s: reps disagree: %+v then %+v", c.label(), c.got, got)
	}
	return res, ""
}

// simRep runs one cell once. A rep that is not kept is a warm-up.
func (e *env) simRep(c *simCell, keep bool) error {
	gcBeforeTiming()
	w := c.w
	var cold time.Duration
	if c.fresh {
		fw, d, err := e.loadGuest(c.guest)
		if err != nil {
			return err
		}
		w, cold = fw, d
	}
	s, d, err := e.newSim(w, c.conf.cfg)
	if err != nil {
		return err
	}
	cold += d
	var r sim.RunResult
	run := e.tr.timed("Simulator.Run", func() { r = s.Run() })
	cold += run
	_, problem := e.checkRun(c, w, s, r)
	if !keep {
		if problem != "" {
			return fmt.Errorf("warm-up: %s", problem)
		}
		return nil
	}
	e.op(problem)
	if e.tr != nil && !e.tr.on {
		c.secsOff = append(c.secsOff, run.Seconds())
	} else {
		c.secs = append(c.secs, run.Seconds())
	}
	if c.fresh {
		c.first = append(c.first, cold.Seconds())
	}
	return nil
}

// simRounds runs reps rounds over the cells, each round in an order drawn
// from the seed, so that drift of the host spreads over all cells. With
// alternate set, every second round runs with the tracer paused.
func (e *env) simRounds(cells []*simCell, reps int, alternate bool, rng *rand.Rand) error {
	order := make([]int, len(cells))
	for r := 0; r < reps; r++ {
		e.tr.setRep(r + 1)
		resume := func() {}
		if alternate && r%2 == 1 {
			resume = e.tr.pause()
		}
		for i := range order {
			order[i] = i
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			if err := e.simRep(cells[i], true); err != nil {
				return err
			}
		}
		resume()
	}
	return nil
}

// simSetup is one set-up pass: compile every guest from mini-C, wire and
// load a simulator for every cell, and make one verification run per
// timed guest on the translated atomic model whose output becomes the
// reference the timed reps are graded against.
func (e *env) simSetup(cells []*simCell) (time.Duration, error) {
	var err error
	d := e.tr.timed("setup-pass", func() {
		guests := make(map[string]*workloads.Workload)
		golden := make(map[string]*workloads.Result)
		for _, c := range cells {
			if guests[c.guest] == nil {
				if guests[c.guest], _, err = e.loadGuest(c.guest); err != nil {
					return
				}
			}
			if _, _, err = e.newSim(guests[c.guest], c.conf.cfg); err != nil {
				return
			}
		}
		for _, g := range e.sz.simGuests {
			w := guests[g]
			var s *sim.Simulator
			if s, _, err = e.newSim(w, confBBT.cfg); err != nil {
				return
			}
			var r sim.RunResult
			e.tr.timed("Simulator.Run", func() { r = s.Run() })
			var problem string
			if golden[g], problem = e.checkRun(&simCell{guest: g, conf: confBBT}, w, s, r); problem != "" {
				err = fmt.Errorf("verification run: %s", problem)
				return
			}
		}
		for _, c := range cells {
			c.w, c.golden = guests[c.guest], golden[c.guest]
		}
	})
	return d, err
}

// findCell returns the cell of a guest and configuration.
func findCell(cells []*simCell, guest, conf string) *simCell {
	for _, c := range cells {
		if c.guest == guest && c.conf.name == conf {
			return c
		}
	}
	return nil
}

func withConf(cells []*simCell, conf string) []*simCell {
	var out []*simCell
	for _, c := range cells {
		if c.conf.name == conf {
			out = append(out, c)
		}
	}
	return out
}

// geoMips is the geometric mean over cells of the per-cell rate.
func geoMips(cells []*simCell) float64 {
	var xs []float64
	for _, c := range cells {
		xs = append(xs, c.mips())
	}
	return geomean(xs)
}

// sumMedians adds up the cells' median run seconds.
func sumMedians(cells []*simCell) (secs float64) {
	for _, c := range cells {
		secs += median(c.all())
	}
	return secs
}

// runSim is the body of sim-atomic and sim-detailed.
func (e *env) runSim(cells []*simCell, firstConf string, reps int, warmAll bool) error {
	rng := rand.New(rand.NewSource(e.seed))
	for _, c := range withConf(cells, firstConf) {
		c.fresh = true
	}

	// Probe cells exist only in the traced run.
	var probes, slow []*simCell
	var observers []*simCell
	if e.tr != nil {
		probes = cellsOf(e.sz.simGuests, confInterp)
		if firstConf == confBBT.name {
			probes = append(probes, cellsOf(e.sz.simGuests, confNoFI, confCold)...)
			probes = append(probes, cellsOf([]string{"deblock"}, confBBT)...)
			slow = cellsOf([]string{"jacobi"}, confBBT)
		} else {
			observers = cellsOf([]string{"pi"}, confFlight, confProf, confTaint)
			probes = append(probes, observers...)
		}
	}
	everything := append(append(append([]*simCell(nil), cells...), probes...), slow...)

	passes := e.sz.setupPasses
	if e.tr != nil {
		passes = 1
	}
	var setups []float64
	for p := 0; p < passes; p++ {
		gcBeforeTiming()
		d, err := e.simSetup(everything)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}

	// One untimed run per timed cell; sim-detailed warms each model once
	// only, because a full round of it costs 6 s.
	var err error
	e.tr.timed("warm-up", func() {
		warmed := make(map[string]bool)
		for _, c := range cells {
			if warmAll || !warmed[c.conf.name] {
				warmed[c.conf.name] = true
				if err = e.simRep(c, false); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}

	if e.tr == nil {
		e.tr.timed("reps", func() { err = e.simRounds(cells, reps, false, rng) })
		if err != nil {
			return err
		}
		e.simEndToEnd(cells, withConf(cells, firstConf), setups)
		return nil
	}

	e.tr.timed("reps", func() { err = e.simRounds(cells, e.sz.tracedReps, true, rng) })
	if err != nil {
		return err
	}
	e.tr.timed("probes", func() {
		if err = e.simRounds(probes, e.sz.probeReps, false, rng); err == nil {
			err = e.simRounds(slow, e.sz.slowReps, false, rng)
		}
	})
	if err != nil {
		return err
	}
	e.simLayers(cells, probes, slow, observers)
	return nil
}

// simEndToEnd reports the five end-to-end metrics of a sim workload.
func (e *env) simEndToEnd(cells, fresh []*simCell, setups []float64) {
	reps := len(cells[0].secs)
	mipsByRound := make([]float64, reps)
	opsByRound := make([]float64, reps)
	firstByRound := make([]float64, reps)
	for r := 0; r < reps; r++ {
		var rates, firsts []float64
		var secs float64
		for _, c := range cells {
			rates = append(rates, float64(c.got.Insts)/c.secs[r]/1e6)
			secs += c.secs[r]
		}
		for _, c := range fresh {
			firsts = append(firsts, c.first[r])
		}
		mipsByRound[r] = geomean(rates)
		opsByRound[r] = float64(len(cells)) / secs
		firstByRound[r] = geomean(firsts)
	}
	secs := sumMedians(cells)
	var firsts []float64
	for _, c := range fresh {
		firsts = append(firsts, median(c.first))
	}

	e.set("guest_mips", aggregateOf(geoMips(cells), mipsByRound, "Minst/s"))
	e.set("exps_per_sec", aggregateOf(float64(len(cells))/secs, opsByRound, "1/s"))
	e.set("first_result_ms", aggregateOf(geomean(firsts), firstByRound, "s").scaled(1e3, "ms"))
	e.set("setup_s", statOf(setups, "s"))

	fmt.Printf("%-22s %12s %10s %10s %10s %3s\n", "cell", "insts", "median_s", "q1_s", "q3_s", "n")
	for _, c := range cells {
		q1, q3 := quartiles(c.secs)
		fmt.Printf("%-22s %12d %10.4f %10.4f %10.4f %3d  %.2f Minst/s\n",
			c.label(), c.got.Insts, median(c.secs), q1, q3, len(c.secs), c.mips())
	}
}

// simLayers reports the per-layer metrics a traced sim run measures.
func (e *env) simLayers(cells, probes, slow, observers []*simCell) {
	secsOn, secsOff := 0.0, 0.0
	for _, c := range cells {
		secsOn += median(c.secs)
		secsOff += median(c.secsOff)
	}
	e.set("trace.overhead_pct", exact(pct(secsOn, secsOff), "%"))
	interp := withConf(probes, confInterp.name)
	e.set("cpu.atomic_interp_mips", exact(geoMips(interp), "Minst/s"))

	if bbt := withConf(cells, confBBT.name); len(bbt) > 0 {
		for _, c := range append(append(bbt, withConf(probes, confBBT.name)...), slow...) {
			e.set("bbt.mips."+c.guest, statOf(c.all(), "s").rate(float64(c.got.Insts)/1e6, "Minst/s"))
		}
		e.set("bbt.speedup_x", exact(geoMips(bbt)/geoMips(interp), "x"))
		cold := withConf(probes, confCold.name)
		e.set("cpu.coldpath_mips", exact(geoMips(cold), "Minst/s"))
		e.set("cpu.fastpath_speedup_x", exact(geoMips(interp)/geoMips(cold), "x"))
		e.set("core.fi_overhead_pct", exact(pct(sumMedians(interp), sumMedians(withConf(probes, confNoFI.name))), "%"))
		return
	}

	timing, pipe := withConf(cells, confTiming.name), withConf(cells, confPipe.name)
	e.set("cpu.timing_mips", exact(geoMips(timing), "Minst/s"))
	e.set("cpu.pipelined_mips", exact(geoMips(pipe), "Minst/s"))
	// The per-instruction differences between models are taken over the
	// guests that run on all of them.
	var tInterp, tTiming, tPipe float64
	var insts, allInsts, ticks uint64
	for _, c := range timing {
		tInterp += median(findCell(probes, c.guest, confInterp.name).all())
		tTiming += median(c.all())
		tPipe += median(findCell(cells, c.guest, confPipe.name).all())
		insts += c.got.Insts
	}
	e.set("mem.hierarchy_ns_per_inst", exact((tTiming-tInterp)/float64(insts)*1e9, "ns/inst"))
	e.set("cpu.pipeline_ns_per_inst", exact((tPipe-tTiming)/float64(insts)*1e9, "ns/inst"))
	for _, c := range pipe {
		allInsts += c.got.Insts
		ticks += c.got.Ticks
	}
	e.set("sim.ipc_pipelined", exact(float64(allInsts)/float64(ticks), "inst/tick"))
	base := median(findCell(cells, "pi", confPipe.name).all())
	for _, c := range observers {
		name := map[string]string{
			confFlight.name: "obs.flight_overhead_pct",
			confProf.name:   "prof.overhead_pct",
			confTaint.name:  "taint.overhead_pct",
		}[c.conf.name]
		e.set(name, exact(pct(median(c.secs), base), "%"))
	}
}

func (e *env) runSimAtomic() error {
	return e.runSim(cellsOf(e.sz.simGuests, confBBT), confBBT.name, e.sz.atomicReps, true)
}

// runSimDetailed runs every guest on the pipelined model, the one a fault
// window runs on, and two of them on the timing model as well.
func (e *env) runSimDetailed() error {
	cells := append(cellsOf(e.sz.simGuests, confPipe), cellsOf(e.sz.timingGuests, confTiming)...)
	return e.runSim(cells, confPipe.name, e.sz.detailedReps, false)
}
