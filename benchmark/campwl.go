package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sim"
)

const hangCause = "hang (watchdog)"

// forkGuests are the guests of campaign-fork: pi shares most of its work
// with the trunk (a third of its experiments are pruned, the median one
// takes 3 ms), canneal shares little and dirties many pages (20 ms).
var forkGuests = []string{"pi", "canneal"}

// goldenRun makes one fault-free run of a guest on the translated atomic
// model and returns its instruction count and where its fault window
// opens. The campaign watchdog is a multiple of the former.
func (e *env) goldenRun(guest string) (insts, windowOpen uint64, err error) {
	w, _, err := e.loadGuest(guest)
	if err != nil {
		return 0, 0, err
	}
	s, _, err := e.newSim(w, confBBT.cfg)
	if err != nil {
		return 0, 0, err
	}
	var r sim.RunResult
	e.tr.timed("Simulator.Run", func() { r = s.Run() })
	if _, problem := e.checkRun(&simCell{guest: guest, conf: confBBT}, w, s, r); problem != "" {
		return 0, 0, fmt.Errorf("golden run: %s", problem)
	}
	return r.Insts, s.WindowOpenInsts, nil
}

// expAccount accumulates what the results of a campaign say about where
// its time went.
type expAccount struct {
	wallMs  []float64 // per experiment
	wallNs  int64
	hangNs  int64
	phaseNs map[string]int64
}

func (a *expAccount) add(wallNs int64, crashCause string, phases map[string]int64) {
	a.wallMs = append(a.wallMs, float64(wallNs)/1e6)
	a.wallNs += wallNs
	if crashCause == hangCause {
		a.hangNs += wallNs
	}
	for name, ns := range phases {
		if a.phaseNs == nil {
			a.phaseNs = make(map[string]int64)
		}
		a.phaseNs[name] += ns
	}
}

// report sets the per-experiment layer metrics.
func (a *expAccount) report(e *env) {
	e.set("campaign.exp_p50_ms", statOf(a.wallMs, "ms"))
	e.set("campaign.exp_p99_ms", exact(quantile(a.wallMs, 0.99), "ms"))
	if a.wallNs > 0 {
		e.set("campaign.hang_share", exact(float64(a.hangNs)/float64(a.wallNs), "ratio"))
	}
}

// forkGuest is one guest's campaign and the samples of its reps.
type forkGuest struct {
	name        string
	n           int
	goldenInsts uint64
	windowOpen  uint64

	golden, trunk, first []float64 // seconds: NewPool, EnableFork, cold start to first result
	run, runOff          []float64 // seconds in RunAll; runOff with tracing off
	insts                uint64    // sum of Result.Insts, the same every rep
	idle                 []float64 // share of the two workers' time spent waiting
	stats                campaign.ForkStats
	tally                campaign.Tally
	window               uint64
}

// campaignConfig is the paper's methodology configuration with the
// benchmark's explicit watchdog.
func campaignConfig(goldenInsts uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.MaxInsts = watchdogX * goldenInsts
	return cfg
}

// corpus draws the first n experiments of the fixed fault corpus and
// returns them in an order drawn from the seed, with perm[i] the corpus
// index of the experiment at position i.
func corpus(n int, window uint64, rng *rand.Rand) (exps []campaign.Experiment, perm []int) {
	drawn := campaign.GenerateUniform(n, campaign.GenConfig{WindowInsts: window, Seed: corpusSeed})
	perm = rng.Perm(n)
	exps = make([]campaign.Experiment, n)
	for i, ci := range perm {
		exps[i] = drawn[ci]
	}
	return exps, perm
}

// outcomesOf renders results as one digit per corpus experiment.
func outcomesOf(results []campaign.Result, perm []int) (string, uint64) {
	digits := make([]byte, len(results))
	var insts uint64
	for i, r := range results {
		digits[perm[i]] = byte('0' + int(r.Outcome))
		insts += r.Insts
	}
	return string(digits), insts
}

// forkRep runs one fresh fork-server campaign of n experiments on a
// guest. spans attaches the system's own span recorder, which is what
// fills Result.PhaseNS.
func (e *env) forkRep(g *forkGuest, n int, keep, spans bool, rng *rand.Rand, acct *expAccount) error {
	w, _, err := e.loadGuest(g.name)
	if err != nil {
		return err
	}
	cfg := campaignConfig(g.goldenInsts)
	gcBeforeTiming()
	var pool *campaign.Pool
	golden := e.tr.timed("campaign.NewPool", func() {
		pool, err = campaign.NewPool(w, 2, campaign.RunnerOptions{Cfg: &cfg})
	})
	if err != nil {
		return err
	}
	trunk := e.tr.timed("Pool.EnableFork", func() { err = pool.EnableFork(campaign.DefaultForkOptions()) })
	if err != nil {
		return err
	}
	g.window = pool.Runner().WindowInsts
	var exps []campaign.Experiment
	var perm []int
	e.tr.timed("campaign.GenerateUniform", func() { exps, perm = corpus(n, g.window, rng) })
	if spans {
		pool.Spans = obs.NewSpanRecorder()
	}
	var firstAt time.Time
	pool.OnResult = func(campaign.Result) {
		if firstAt.IsZero() {
			firstAt = time.Now()
		}
	}
	gcBeforeTiming()
	var results []campaign.Result
	start := time.Now()
	run := e.tr.timed("Pool.RunAll", func() { results = pool.RunAll(exps) })
	if !keep {
		return nil
	}

	outcomes, insts := outcomesOf(results, perm)
	key := fmt.Sprintf("campaign/%s/%s/%s/fork/n%d/x%d", e.sz.scaleName(), g.name, cfg.Model, n, watchdogX)
	failed, problem := e.exp.checkCampaign(key, campExpect{Outcomes: outcomes, Insts: insts})
	e.ops(n, failed, problem)

	g.golden = append(g.golden, golden.Seconds())
	g.trunk = append(g.trunk, trunk.Seconds())
	g.first = append(g.first, (golden + trunk + firstAt.Sub(start)).Seconds())
	if spans || e.tr == nil {
		g.run = append(g.run, run.Seconds())
	} else {
		g.runOff = append(g.runOff, run.Seconds())
	}
	g.insts = insts
	g.stats = pool.ForkStats()
	g.tally = campaign.TallyOf(results)
	var wallNs int64
	for _, r := range results {
		wallNs += r.WallNs
		if acct != nil {
			acct.add(r.WallNs, r.CrashCause, r.PhaseNS)
		}
	}
	g.idle = append(g.idle, 1-float64(wallNs)/(2*float64(run.Nanoseconds())))
	return nil
}

func (e *env) runCampaignFork() error {
	rng := rand.New(rand.NewSource(e.seed))
	var guests []*forkGuest
	for _, name := range forkGuests {
		insts, open, err := e.goldenRun(name)
		if err != nil {
			return err
		}
		guests = append(guests, &forkGuest{name: name, n: e.sz.forkN[name], goldenInsts: insts, windowOpen: open})
	}

	// One small untimed campaign, on the cheaper guest only: canneal's
	// set-up alone costs 2 s.
	var err error
	e.tr.timed("warm-up", func() { err = e.forkRep(guests[0], e.sz.forkWarm, false, false, rng, nil) })
	if err != nil {
		return err
	}

	reps, acct := e.sz.forkReps, (*expAccount)(nil)
	if e.tr != nil {
		reps, acct = e.sz.tracedReps, &expAccount{}
	}
	e.tr.timed("reps", func() {
		for r := 0; r < reps && err == nil; r++ {
			e.tr.setRep(r + 1)
			resume := func() {}
			traced := e.tr != nil && r%2 == 0
			if e.tr != nil && !traced {
				resume = e.tr.pause()
			}
			for _, g := range guests {
				if err = e.forkRep(g, g.n, true, traced, rng, acct); err != nil {
					break
				}
			}
			resume()
		}
	})
	if err != nil {
		return err
	}

	if e.tr == nil {
		e.forkEndToEnd(guests)
		return nil
	}
	e.tr.timed("probes", func() {
		if err = e.checkpointProbes(guests); err == nil {
			err = e.replayProbe(guests[0], rng)
		}
	})
	if err != nil {
		return err
	}
	e.forkLayers(guests, acct)
	return nil
}

// forkEndToEnd reports the five end-to-end metrics of campaign-fork.
func (e *env) forkEndToEnd(guests []*forkGuest) {
	reps := len(guests[0].run)
	expsByRep, mipsByRep := make([]float64, reps), make([]float64, reps)
	setupByRep, firstByRep := make([]float64, reps), make([]float64, reps)
	var n int
	var insts uint64
	var runSecs, setupSecs float64
	var firsts []float64
	for _, g := range guests {
		n += g.n
		insts += g.insts
		runSecs += median(g.run)
		setupSecs += median(g.golden) + median(g.trunk)
		firsts = append(firsts, median(g.first))
	}
	for r := 0; r < reps; r++ {
		var secs float64
		var first []float64
		for _, g := range guests {
			secs += g.run[r]
			setupByRep[r] += g.golden[r] + g.trunk[r]
			first = append(first, g.first[r])
		}
		expsByRep[r] = float64(n) / secs
		mipsByRep[r] = float64(insts) / secs / 1e6
		firstByRep[r] = geomean(first)
	}
	e.set("exps_per_sec", aggregateOf(float64(n)/runSecs, expsByRep, "1/s"))
	e.set("guest_mips", aggregateOf(float64(insts)/runSecs/1e6, mipsByRep, "Minst/s"))
	e.set("first_result_ms", aggregateOf(geomean(firsts), firstByRep, "s").scaled(1e3, "ms"))
	e.set("setup_s", aggregateOf(setupSecs, setupByRep, "s"))

	fmt.Printf("%-10s %5s %10s %10s %10s %10s %3s\n", "guest", "exps", "golden_s", "trunk_s", "run_s", "idle", "n")
	for _, g := range guests {
		fmt.Printf("%-10s %5d %10.4f %10.4f %10.4f %10.3f %3d  %v\n",
			g.name, g.n, median(g.golden), median(g.trunk), median(g.run), median(g.idle), len(g.run), g.tally)
	}
}

// forkLayers reports the per-layer metrics a traced campaign-fork run
// measures from its reps.
func (e *env) forkLayers(guests []*forkGuest, acct *expAccount) {
	var golden, trunk, on, off, idle float64
	var forks, pruned, bytes uint64
	for _, g := range guests {
		golden += median(g.golden)
		trunk += median(g.trunk)
		on += median(g.run)
		off += median(g.runOff)
		idle += median(g.idle) / float64(len(guests))
		forks += g.stats.Forks
		pruned += g.stats.PrunedMasked + g.stats.PrunedTwin + g.stats.MemoHits
		bytes += g.stats.ApproxBytes
	}
	e.set("trace.overhead_pct", exact(pct(on, off), "%"))
	e.set("campaign.golden_ms", exact(golden*1e3, "ms"))
	e.set("campaign.trunk_ms", exact(trunk*1e3, "ms"))
	e.set("campaign.pool_idle_pct", exact(idle*100, "%"))
	e.set("campaign.pruned_frac", exact(float64(pruned)/float64(forks), "ratio"))
	e.set("checkpoint.snapshot_bytes", exact(float64(bytes), "B"))
	acct.report(e)
	var total int64
	for _, ns := range acct.phaseNs {
		total += ns
	}
	for _, name := range []string{"fork", "pre-window", "fi-window", "post-window", "classify"} {
		e.set("campaign.phase."+name+"_share", exact(float64(acct.phaseNs[name])/float64(total), "ratio"))
	}
}

// checkpointProbes times the snapshot primitives directly, on an atomic
// simulator paused at the guest's window open as the fork server's trunk
// is: 32 copy-on-write captures one snapshot interval apart, a fork of a
// pipelined child from each, and deep-copy capture and restore.
func (e *env) checkpointProbes(guests []*forkGuest) error {
	const snapshots, deepCopies = 32, 5
	var capture, fork, state, restore float64
	for _, g := range guests {
		w, _, err := e.loadGuest(g.name)
		if err != nil {
			return err
		}
		trunk, _, err := e.newSim(w, confInterp.cfg)
		if err != nil {
			return err
		}
		child, _, err := e.newSim(w, campaignConfig(g.goldenInsts))
		if err != nil {
			return err
		}
		at := g.windowOpen
		var r sim.RunResult
		var captures, forks, states, restores []float64
		for i := 0; i < snapshots; i++ {
			e.tr.timed("Simulator.RunUntil", func() { r = trunk.RunUntil(at) })
			if !r.Paused {
				return fmt.Errorf("checkpoint probe: %s ended inside its fault window: %+v", g.name, r)
			}
			end := e.tr.begin("Simulator.CaptureForkPoint")
			fp := trunk.CaptureForkPoint()
			captures = append(captures, end().Seconds())
			forks = append(forks, e.tr.timed("Simulator.ForkFrom", func() { child.ForkFrom(fp, nil) }).Seconds())
			at += g.window / snapshots
		}
		for i := 0; i < deepCopies; i++ {
			end := e.tr.begin("Simulator.Checkpoint")
			st := trunk.Checkpoint()
			states = append(states, end().Seconds())
			restores = append(restores, e.tr.timed("Simulator.Restore", func() { child.Restore(st, nil) }).Seconds())
		}
		capture += median(captures)
		fork += median(forks)
		state += median(states)
		restore += median(restores)
	}
	e.set("checkpoint.forkpoint_capture_us", exact(capture*1e6, "us"))
	e.set("checkpoint.fork_from_us", exact(fork*1e6, "us"))
	e.set("checkpoint.state_capture_ms", exact(state*1e3, "ms"))
	e.set("checkpoint.state_restore_ms", exact(restore*1e3, "ms"))
	return nil
}

// replayProbe runs the first experiments of a guest's corpus without the
// fork server: every experiment restores the checkpoint and fast-forwards
// to the window on the translated atomic model.
func (e *env) replayProbe(g *forkGuest, rng *rand.Rand) error {
	w, _, err := e.loadGuest(g.name)
	if err != nil {
		return err
	}
	cfg := campaignConfig(g.goldenInsts)
	cfg.FastForward = true
	cfg.EnableBlockTranslation = true
	var pool *campaign.Pool
	e.tr.timed("campaign.NewPool", func() { pool, err = campaign.NewPool(w, 2, campaign.RunnerOptions{Cfg: &cfg}) })
	if err != nil {
		return err
	}
	n := e.sz.replayN
	var secs []float64
	for r := 0; r < e.sz.probeReps; r++ {
		exps, perm := corpus(n, pool.Runner().WindowInsts, rng)
		gcBeforeTiming()
		var results []campaign.Result
		secs = append(secs, e.tr.timed("Pool.RunAll", func() { results = pool.RunAll(exps) }).Seconds())
		outcomes, insts := outcomesOf(results, perm)
		key := fmt.Sprintf("campaign/%s/%s/%s/replay/n%d/x%d", e.sz.scaleName(), g.name, cfg.Model, n, watchdogX)
		failed, problem := e.exp.checkCampaign(key, campExpect{Outcomes: outcomes, Insts: insts})
		e.ops(n, failed, problem)
	}
	e.set("campaign.replay_exps_per_sec", statOf(secs, "s").rate(float64(n), "1/s"))
	return nil
}
