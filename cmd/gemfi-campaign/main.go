// Command gemfi-campaign runs fault injection campaigns and regenerates
// the paper's evaluation figures:
//
//	gemfi-campaign -experiment fig5 -n 100 -parallel 8
//	gemfi-campaign -experiment fig6 -workload knapsack -n 400
//	gemfi-campaign -experiment fig7 -trials 5
//	gemfi-campaign -experiment fig8 -n 20 -workers 4
//	gemfi-campaign -experiment custom -workload dct -n 200 -json out.json
//
// With -server it is instead a client of a gemfi-serve campaign service:
//
//	gemfi-campaign -server http://localhost:8080 -submit -workload pi -n 500 -sampling adaptive
//	gemfi-campaign -server http://localhost:8080 -watch c0001
//	gemfi-campaign -server http://localhost:8080 -resume c0001
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/httpserv"
	"repro/internal/sim"
	"repro/internal/taint"
	"repro/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gemfi-campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		experiment = flag.String("experiment", "custom", "fig5|fig6|fig7|fig8|vdd|table1|custom")
		workload   = flag.String("workload", "pi", "workload for fig6/custom")
		scaleName  = flag.String("scale", "test", "workload scale: test|small|paper")
		n          = flag.Int("n", 100, "experiments (per location for fig5)")
		bins       = flag.Int("bins", 5, "time bins for fig6")
		trials     = flag.Int("trials", 3, "trials for fig7")
		workers    = flag.Int("workers", 4, "parallel workers for fig8")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "local parallelism")
		seed       = flag.Int64("seed", 1, "campaign seed")
		model      = flag.String("model", "atomic", "CPU model for experiments")
		jsonOut    = flag.String("json", "", "also write the report as JSON to this file")
		traceOut   = flag.String("trace", "", "stream campaign trace events as JSON lines to this file (custom experiment)")
		metrics    = flag.Bool("metrics", false, "print the campaign metrics registry at exit")
		progress   = flag.Bool("progress", true, "print periodic progress lines (custom experiment)")
		httpAddr   = flag.String("http", "", "serve live observability endpoints (/metrics /status /profile /taint /debug/pprof) during the campaign (custom experiment)")
		profile    = flag.Bool("profile", false, "profile the guest across all experiments and print the top table plus the per-PC outcome attribution (custom experiment)")
		profileTop = flag.Int("profile-top", 20, "rows in the -profile tables")
		taintOn    = flag.Bool("taint", false, "track fault propagation per experiment: verdict tally, Result.Prop summaries in -json, propagation columns in the PC report (custom experiment)")
		fastFwd    = flag.Bool("fast-forward", false, "run each experiment on the cheap atomic model until the fault window opens, then switch to -model (campaign speedup; no effect when -model atomic)")
		bbtOn      = flag.Bool("bbt", true, "translate hot basic blocks into fused closure chains wherever the atomic fast path runs (fast-forward prefix, atomic experiments, post-resolve tail)")
		forkOn     = flag.Bool("fork", false, "fork-server mode: one trunk run freezes COW snapshots across the fault window; each experiment forks from the closest one instead of replaying the warm-up (custom experiment)")
		forkSnaps  = flag.Int("fork-snapshots", 32, "target trunk snapshots across the fault window in -fork mode")
		forkPrune  = flag.Bool("fork-prune", true, "classify provably masked experiments early in -fork mode (disabled automatically under -profile/-taint)")

		flightOn    = flag.Bool("flight", false, "flight recorder: dump the last -flight-depth committed instructions of every crashed/SDC experiment onto its result (custom experiment; served at /postmortem/{id} with -http)")
		flightDepth = flag.Int("flight-depth", 0, "flight recorder ring size (0 = default)")

		// Distributed span tracing (custom experiment). Each experiment
		// becomes one trace: an experiment root, per-phase child spans,
		// and fault-lifecycle events.
		spansOn     = flag.Bool("spans", false, "record per-experiment span traces (implied by the other -span* flags and -http)")
		spanSample  = flag.Int("span-sample", 1, "keep 1 in N experiment traces (head sampling; crashed/SDC traces are always kept)")
		spansJSONL  = flag.String("spans-jsonl", "", "stream completed span trees as JSON lines to this file (validate with gemfi -validate-spans)")
		spansChrome = flag.String("spans-chrome", "", "write kept traces as Chrome/Perfetto catapult JSON to this file at exit")
		traceID     = flag.String("trace-id", "", "print one trace's span timeline at exit: a trace ID, or 'last' for the most recent kept trace")

		// Campaign-service client mode.
		server   = flag.String("server", "", "gemfi-serve base URL; switches to client mode (-submit/-watch/-resume)")
		submit   = flag.Bool("submit", false, "submit a campaign spec built from the flags to -server and print its ID")
		watch    = flag.String("watch", "", "stream a -server campaign's results live until it finishes")
		resume   = flag.String("resume", "", "print a -server campaign's report so far, then stream the remainder")
		sampling = flag.String("sampling", "", "service sampling mode: uniform|adaptive (-submit)")
		strata   = flag.Int("strata", 0, "adaptive strata count (-submit; 0 = service default)")
		batch    = flag.Int("batch", 0, "adaptive batch size (-submit; 0 = service default)")
		tenant   = flag.String("tenant", "", "fair-share tenant account (-submit)")
		weight   = flag.Int("weight", 0, "fair-share weight (-submit; 0 = default 1)")
	)
	flag.Parse()

	if *server != "" {
		return runClient(clientArgs{
			server: *server, submit: *submit, watch: *watch, resume: *resume,
			workload: *workload, scale: *scaleName, model: *model,
			n: *n, seed: *seed, sampling: *sampling, strata: *strata, batch: *batch,
			tenant: *tenant, weight: *weight, workers: *parallel,
			fork: *forkOn, taint: *taintOn, profile: *profile, flight: *flightOn,
		})
	}

	scale, err := parseScale(*scaleName)
	if err != nil {
		return err
	}

	var reg *obs.Registry
	if *metrics || *httpAddr != "" {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			return err
		}
		tracer = obs.NewTracer()
		tracer.StreamJSONL(traceFile)
	}
	// dumpObs flushes trace/metrics output on the paths that ran a
	// campaign.
	dumpObs := func() error {
		if tracer != nil {
			if err := tracer.Flush(); err != nil {
				return err
			}
			if err := traceFile.Close(); err != nil {
				return err
			}
		}
		if reg != nil {
			return reg.WriteText(os.Stdout)
		}
		return nil
	}
	// MaxInsts stays zero: each runner derives its watchdog from its
	// workload's golden run.
	cfg := sim.Config{
		Model:                   sim.ModelKind(*model),
		EnableFI:                true,
		SwitchToAtomicOnResolve: sim.ModelKind(*model) == sim.ModelPipelined,
		FastForward:             *fastFwd,
		EnableBlockTranslation:  *bbtOn,
	}
	opts := campaign.RunnerOptions{Cfg: &cfg}

	var report interface {
		String() string
	}
	switch *experiment {
	case "fig5":
		rep, err := campaign.RunFig5(campaign.Fig5Config{
			Workloads:    workloads.All(scale),
			PerLocation:  *n,
			Parallelism:  *parallel,
			Seed:         *seed,
			RunnerConfig: opts,
		})
		if err != nil {
			return err
		}
		report = rep

	case "fig6":
		w, err := workloads.ByName(*workload, scale)
		if err != nil {
			return err
		}
		rep, err := campaign.RunFig6(campaign.Fig6Config{
			Workload:     w,
			Experiments:  *n,
			Bins:         *bins,
			Parallelism:  *parallel,
			Seed:         *seed,
			RunnerConfig: opts,
		})
		if err != nil {
			return err
		}
		report = rep

	case "fig7":
		rep, err := campaign.RunFig7(campaign.Fig7Config{
			Workloads: workloads.All(scale),
			Trials:    *trials,
			Metrics:   reg,
		})
		if err != nil {
			return err
		}
		report = rep

	case "fig8":
		rep, err := campaign.RunFig8(campaign.Fig8Config{
			Workloads:   workloads.All(scale),
			Experiments: *n,
			Workers:     *workers,
			Seed:        *seed,
			Cfg:         &cfg,
			Metrics:     reg,
		})
		if err != nil {
			return err
		}
		report = rep

	case "table1":
		fmt.Println("Table I: Thessaly-64 instruction formats (Alpha layout)")
		for _, row := range [][2]string{
			{"Memory", "opcode[31:26] Ra[25:21] Rb[20:16] displacement[15:0]"},
			{"Branch", "opcode[31:26] Ra[25:21] displacement[20:0]"},
			{"Operate (reg)", "opcode[31:26] Ra[25:21] Rb[20:16] SBZ[15:13] 0[12] func[11:5] Rc[4:0]"},
			{"Operate (lit)", "opcode[31:26] Ra[25:21] literal[20:13] 1[12] func[11:5] Rc[4:0]"},
			{"FP Operate", "opcode[31:26] Fa[25:21] Fb[20:16] func[15:5] Fc[4:0]"},
			{"PALcode", "opcode[31:26] palcode function[25:0]"},
		} {
			fmt.Printf("  %-14s %s\n", row[0], row[1])
		}
		return nil

	case "vdd":
		w, err := workloads.ByName(*workload, scale)
		if err != nil {
			return err
		}
		rep, err := campaign.RunVddSweep(campaign.VddConfig{
			Workload:     w,
			PerVoltage:   *n,
			Parallelism:  *parallel,
			Seed:         *seed,
			RunnerConfig: opts,
		})
		if err != nil {
			return err
		}
		report = rep

	case "custom":
		w, err := workloads.ByName(*workload, scale)
		if err != nil {
			return err
		}
		cfg.EnableProfiler = *profile || *httpAddr != ""
		cfg.EnableTaint = *taintOn || *httpAddr != ""
		cfg.EnableFlight, cfg.FlightDepth = *flightOn, *flightDepth
		pool, err := campaign.NewPool(w, *parallel, opts)
		if err != nil {
			return err
		}
		pool.Metrics = reg
		pool.Tracer = tracer
		wantSpans := *spansOn || *spansJSONL != "" || *spansChrome != "" ||
			*traceID != "" || *httpAddr != ""
		var spanRec *obs.SpanRecorder
		var spansFile *os.File
		if wantSpans {
			spanRec = obs.NewSpanRecorder()
			spanRec.SetSampling(*spanSample)
			pool.Spans = spanRec
			if *spansJSONL != "" {
				if spansFile, err = os.Create(*spansJSONL); err != nil {
					return err
				}
				// The sink fires from whichever worker completes a trace;
				// serialize the file writes.
				var mu sync.Mutex
				spanRec.StreamJSONL(func(tr obs.Trace) {
					mu.Lock()
					defer mu.Unlock()
					_ = obs.WriteTraceJSONL(spansFile, tr)
				})
			}
		}
		// Post-mortem index for /postmortem/{id}: filled as results land
		// (OnResult fires from worker goroutines, hence the lock).
		var pmMu sync.Mutex
		pmByTrace := make(map[string]*flight.Postmortem)
		if *flightOn {
			pool.OnResult = func(res campaign.Result) {
				if res.Postmortem == nil {
					return
				}
				pmMu.Lock()
				pmByTrace[res.TraceID] = res.Postmortem
				pmByTrace[fmt.Sprintf("exp/%d", res.ID)] = res.Postmortem
				pmMu.Unlock()
			}
		}
		if *forkOn {
			if err := pool.EnableFork(campaign.ForkOptions{
				Snapshots: *forkSnaps,
				Prune:     *forkPrune,
				TwinCheck: *forkPrune,
			}); err != nil {
				return err
			}
		}
		if *httpAddr != "" {
			hcfg := httpserv.Config{
				Metrics: reg,
				Status:  func() any { return pool.Status() },
				Profile: pool.Profile,
				Taint:   pool.TaintReport,
				Spans:   spanRec,
				TopN:    *profileTop,
			}
			if *flightOn {
				hcfg.Postmortem = func(id string) (*flight.Postmortem, bool) {
					pmMu.Lock()
					defer pmMu.Unlock()
					pm, ok := pmByTrace[id]
					return pm, ok
				}
			}
			srv, err := httpserv.New(*httpAddr, hcfg)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "observability server on http://%s\n", srv.Addr())
		}
		if *progress {
			// Throttled progress: at most one line every ~2s, plus the
			// final one.
			var last time.Time
			pool.OnProgress = func(done, total int, elapsed time.Duration) {
				if done != total && time.Since(last) < 2*time.Second {
					return
				}
				last = time.Now()
				rate := float64(done) / elapsed.Seconds()
				fmt.Fprintf(os.Stderr, "campaign: %d/%d experiments (%.1f exp/s)\n", done, total, rate)
			}
		}
		exps := campaign.GenerateUniform(*n, campaign.GenConfig{
			WindowInsts: pool.Runner().WindowInsts,
			Seed:        *seed,
		})
		results := pool.RunAll(exps)
		tally := campaign.TallyOf(results)
		fmt.Printf("workload %s: %d experiments\n", w.Name, tally.Total())
		for _, o := range campaign.Outcomes() {
			fmt.Printf("  %-18s %5d (%5.1f%%)\n", o, tally[o], 100*tally.Fraction(o))
		}
		if *flightOn {
			dumps := 0
			for _, r := range results {
				if r.Postmortem != nil {
					dumps++
				}
			}
			fmt.Printf("flight recorder: %d post-mortem dumps (crashed/SDC/reached-state)\n", dumps)
		}
		if *forkOn {
			st := pool.ForkStats()
			fmt.Printf("fork server: %d forks from %d snapshots (%d evicted, ~%d KiB live), "+
				"%d walks over %d armed insts, "+
				"pruned %d masked + %d twin-converged of %d twin checks\n",
				st.Forks, st.SnapshotsTaken, st.SnapshotsEvicted, st.ApproxBytes/1024,
				st.Walks, st.ArmedInsts,
				st.PrunedMasked, st.PrunedTwin, st.TwinChecks)
		}
		if *taintOn {
			// Companion tally: for each outcome above, how the taint
			// tracker explains it.
			verdicts := make(map[taint.Verdict]int)
			for _, r := range results {
				if r.Prop != nil {
					verdicts[r.Prop.Verdict]++
				}
			}
			fmt.Println("propagation verdicts:")
			for _, v := range taint.Verdicts() {
				if n := verdicts[v]; n > 0 {
					fmt.Printf("  %-18s %5d\n", v, n)
				}
			}
		}
		if *profile {
			if p := pool.Profile(); p != nil {
				fmt.Println()
				if err := p.WriteTop(os.Stdout, *profileTop); err != nil {
					return err
				}
			}
			syms := pool.Runner().Profiler().Symbols()
			rows, unattributed := campaign.AttributeByPC(results, syms)
			if len(rows) > *profileTop {
				rows = rows[:*profileTop]
			}
			fmt.Println()
			if err := campaign.WritePCReport(os.Stdout, rows, unattributed); err != nil {
				return err
			}
		}
		if spanRec != nil {
			if err := dumpSpans(spanRec, spansFile, *spansChrome, *traceID); err != nil {
				return err
			}
		}
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, results); err != nil {
				return err
			}
		}
		return dumpObs()

	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}

	fmt.Print(report.String())
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, report); err != nil {
			return err
		}
	}
	return dumpObs()
}

// dumpSpans flushes the span-tracing outputs at campaign end: close the
// JSONL stream, write the Chrome/Perfetto export, and print the
// requested trace timeline.
func dumpSpans(rec *obs.SpanRecorder, jsonl *os.File, chromePath, traceID string) error {
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			return err
		}
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := rec.WriteSpansChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("span trace written to %s (load in chrome://tracing or Perfetto)\n", chromePath)
	}
	if traceID != "" {
		var tr *obs.Trace
		if traceID == "last" {
			if ts := rec.Traces(); len(ts) > 0 {
				tr = ts[0]
			}
		} else {
			tr = rec.TraceByID(traceID)
		}
		if tr == nil {
			fmt.Fprintf(os.Stderr, "trace %q not found (evicted or sampled out; %d dropped)\n",
				traceID, rec.Dropped())
		} else if err := tr.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if n := rec.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "spans: %d spans dropped by sampling/eviction (obs.spans.dropped)\n", n)
	}
	return nil
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func parseScale(name string) (workloads.Scale, error) {
	switch name {
	case "test":
		return workloads.ScaleTest, nil
	case "small":
		return workloads.ScaleSmall, nil
	case "paper":
		return workloads.ScalePaper, nil
	}
	return 0, fmt.Errorf("unknown scale %q", name)
}
