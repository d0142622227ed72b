package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// campaignCmd runs fault injection campaigns and regenerates the
// paper's evaluation figures:
//
//	gemfi campaign -experiment fig5 -n 100 -parallel 8
//	gemfi campaign -experiment fig6 -workload knapsack -n 400
//	gemfi campaign -experiment fig7 -trials 5
//	gemfi campaign -experiment fig8 -n 20 -workers 4
//	gemfi campaign -experiment custom -workload dct -n 200 -json out.json
//
// With -server it is instead a client of a gemfi serve campaign service:
//
//	gemfi campaign -server http://localhost:8080 -submit -workload pi -n 500 -sampling adaptive
//	gemfi campaign -server http://localhost:8080 -watch c0001
//	gemfi campaign -server http://localhost:8080 -resume c0001
func campaignCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("campaign", stderr)
	spec := specFlags(fs)
	var (
		experiment = fs.String("experiment", "custom", "fig5|fig6|fig7|fig8|vdd|table1|custom")
		bins       = fs.Int("bins", 5, "time bins for fig6")
		trials     = fs.Int("trials", 3, "trials for fig7")
		workers    = fs.Int("workers", 4, "parallel workers for fig8")
		parallel   = fs.Int("parallel", runtime.NumCPU(), "local parallelism (the service's per-campaign workers with -submit)")
		jsonOut    = fs.String("json", "", "also write the report as JSON to this file")
		metrics    = fs.Bool("metrics", false, "print the campaign metrics registry at exit")
		progress   = fs.Bool("progress", true, "print periodic progress lines (custom experiment)")
		httpAddr   = fs.String("http", "", "serve live observability endpoints (/metrics /status /profile /taint /debug/pprof) during the campaign (custom experiment)")
		profileTop = fs.Int("profile-top", 20, "rows in the -profile tables")
		fastFwd    = fs.Bool("fast-forward", false, "run each experiment on the cheap atomic model until the fault window opens, then switch to -model (campaign speedup; no effect when -model atomic)")
		forkSnaps  = fs.Int("fork-snapshots", 32, "target trunk snapshots across the fault window in -fork mode")

		flightDepth = fs.Int("flight-depth", 0, "flight recorder ring size (0 = default)")

		// Distributed span tracing (custom experiment), on when an output
		// below or -http asks for it. Each experiment becomes one trace:
		// an experiment root, per-phase child spans, and fault-lifecycle
		// events.
		spanSample  = fs.Int("span-sample", 1, "keep 1 in N experiment traces (head sampling; crashed/SDC traces are always kept)")
		spansJSONL  = fs.String("spans-jsonl", "", "stream completed span trees as JSON lines to this file (check with gemfi validate spans)")
		spansChrome = fs.String("spans-chrome", "", "write kept traces as Chrome/Perfetto catapult JSON to this file at exit")
		traceID     = fs.String("trace-id", "", "print one trace's span timeline at exit: a trace ID, or 'last' for the most recent kept trace")

		// Campaign-service client mode.
		server = fs.String("server", "", "gemfi serve base URL; switches to client mode (-submit/-watch/-resume)")
		submit = fs.Bool("submit", false, "submit a campaign spec built from the flags to -server and print its ID")
		watch  = fs.String("watch", "", "stream a -server campaign's results live until it finishes")
		resume = fs.String("resume", "", "print a -server campaign's report so far, then stream the remainder")
	)
	fs.BoolVar(&spec.Profile, "profile", false, "profile the guest across all experiments and print the top table plus the per-PC outcome attribution (custom experiment)")
	fs.BoolVar(&spec.Taint, "taint", false, "track fault propagation per experiment: verdict tally, Result.Prop summaries in -json, propagation columns in the PC report (custom experiment)")
	fs.BoolVar(&spec.Fork, "fork", false, "fork-server mode: one trunk run freezes COW snapshots across the fault window; each experiment forks from the closest one instead of replaying the warm-up, and provably decided ones end early except under -profile/-taint/-flight (custom experiment)")
	fs.BoolVar(&spec.Flight, "flight", false, "flight recorder: dump the last -flight-depth committed instructions of every crashed/SDC experiment onto its result (custom experiment; served at /postmortem/{id} with -http)")
	fs.StringVar(&spec.Sampling, "sampling", "", "service sampling mode: uniform|adaptive (-submit)")
	fs.IntVar(&spec.Strata, "strata", 0, "adaptive strata count (-submit; 0 = service default)")
	fs.IntVar(&spec.Batch, "batch", 0, "adaptive batch size (-submit; 0 = service default)")
	fs.StringVar(&spec.Tenant, "tenant", "", "fair-share tenant account (-submit)")
	fs.IntVar(&spec.Weight, "weight", 0, "fair-share weight (-submit; 0 = default 1)")
	if err := parse(fs, args); err != nil {
		return err
	}
	spec.Workers = *parallel
	if err := spec.Validate(); err != nil {
		return err
	}
	if *server != "" {
		return runClient(ctx, *server, spec, *submit, *watch, *resume, stdout)
	}
	scale, err := workloads.ParseScale(spec.Scale)
	if err != nil {
		return err
	}
	modelKind, err := sim.ParseModel(spec.Model)
	if err != nil {
		return err
	}

	var reg *obs.Registry
	if *metrics || *httpAddr != "" {
		reg = obs.NewRegistry()
	}
	// The configuration every campaign runner uses. MaxInsts stays zero:
	// each runner derives its watchdog from its workload's golden run.
	cfg := campaign.SimConfig(modelKind, 0)
	cfg.FastForward = *fastFwd
	opts := campaign.RunnerOptions{Cfg: &cfg}

	var report func() (fmt.Stringer, error)
	switch *experiment {
	case "fig5":
		report = func() (fmt.Stringer, error) {
			return campaign.RunFig5(campaign.Fig5Config{
				Workloads:    workloads.All(scale),
				PerLocation:  spec.N,
				Parallelism:  *parallel,
				Seed:         spec.Seed,
				RunnerConfig: opts,
			})
		}

	case "fig6":
		w, err := workloads.ByName(spec.Workload, scale)
		if err != nil {
			return err
		}
		report = func() (fmt.Stringer, error) {
			return campaign.RunFig6(campaign.Fig6Config{
				Workload:     w,
				Experiments:  spec.N,
				Bins:         *bins,
				Parallelism:  *parallel,
				Seed:         spec.Seed,
				RunnerConfig: opts,
			})
		}

	case "fig7":
		report = func() (fmt.Stringer, error) {
			return campaign.RunFig7(campaign.Fig7Config{
				Workloads: workloads.All(scale),
				Trials:    *trials,
				Metrics:   reg,
			})
		}

	case "fig8":
		report = func() (fmt.Stringer, error) {
			return campaign.RunFig8(campaign.Fig8Config{
				Workloads:   workloads.All(scale),
				Experiments: spec.N,
				Workers:     *workers,
				Seed:        spec.Seed,
				Cfg:         &cfg,
				Metrics:     reg,
			})
		}

	case "table1":
		fmt.Fprintln(stdout, "Table I: Thessaly-64 instruction formats (Alpha layout)")
		for _, row := range [][2]string{
			{"Memory", "opcode[31:26] Ra[25:21] Rb[20:16] displacement[15:0]"},
			{"Branch", "opcode[31:26] Ra[25:21] displacement[20:0]"},
			{"Operate (reg)", "opcode[31:26] Ra[25:21] Rb[20:16] SBZ[15:13] 0[12] func[11:5] Rc[4:0]"},
			{"Operate (lit)", "opcode[31:26] Ra[25:21] literal[20:13] 1[12] func[11:5] Rc[4:0]"},
			{"FP Operate", "opcode[31:26] Fa[25:21] Fb[20:16] func[15:5] Fc[4:0]"},
			{"PALcode", "opcode[31:26] palcode function[25:0]"},
		} {
			fmt.Fprintf(stdout, "  %-14s %s\n", row[0], row[1])
		}
		return nil

	case "vdd":
		w, err := workloads.ByName(spec.Workload, scale)
		if err != nil {
			return err
		}
		report = func() (fmt.Stringer, error) {
			return campaign.RunVddSweep(campaign.VddConfig{
				Workload:     w,
				PerVoltage:   spec.N,
				Parallelism:  *parallel,
				Seed:         spec.Seed,
				RunnerConfig: opts,
			})
		}

	case "custom":
		w, err := workloads.ByName(spec.Workload, scale)
		if err != nil {
			return err
		}
		cfg.EnableProfiler = spec.Profile || *httpAddr != ""
		cfg.EnableTaint = spec.Taint || *httpAddr != ""
		cfg.EnableFlight, cfg.FlightDepth = spec.Flight, *flightDepth
		pool, err := campaign.NewPool(w, *parallel, opts)
		if err != nil {
			return err
		}
		pool.Metrics = reg
		var spanRec *obs.SpanRecorder
		var spanOut *spanFiles
		if *spansJSONL != "" || *spansChrome != "" || *traceID != "" || *httpAddr != "" {
			spanRec = obs.NewSpanRecorder()
			spanRec.SetSampling(*spanSample)
			pool.Spans = spanRec
			if spanOut, err = openSpanFiles(spanRec, *spansJSONL, *spansChrome); err != nil {
				return err
			}
		}
		// Post-mortem index for /postmortem/{id}: filled as results land
		// (OnResult fires from worker goroutines, hence the lock).
		var pmMu sync.Mutex
		pmByTrace := make(map[string]*flight.Postmortem)
		if spec.Flight {
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
		if spec.Fork {
			if err := pool.EnableFork(campaign.ForkOptions{Snapshots: *forkSnaps}); err != nil {
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
			if spec.Flight {
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
			fmt.Fprintf(stderr, "observability server on http://%s\n", srv.Addr())
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
				fmt.Fprintf(stderr, "campaign: %d/%d experiments (%.1f exp/s)\n", done, total, rate)
			}
		}
		exps := campaign.GenerateUniform(spec.N, campaign.GenConfig{
			WindowInsts: pool.Runner().WindowInsts,
			Seed:        spec.Seed,
		})
		results, err := pool.RunAllContext(ctx, exps)
		if err != nil {
			return fmt.Errorf("campaign stopped after %d of %d experiments: %w", pool.Status().Done, len(exps), err)
		}
		tally := campaign.TallyOf(results)
		writeTally(stdout, fmt.Sprintf("workload %s: %d experiments", w.Name, tally.Total()), tally)
		if spec.Flight {
			dumps := 0
			for _, r := range results {
				if r.Postmortem != nil {
					dumps++
				}
			}
			fmt.Fprintf(stdout, "flight recorder: %d post-mortem dumps (crashed/SDC/reached-state)\n", dumps)
		}
		if spec.Fork {
			st := pool.ForkStats()
			fmt.Fprintf(stdout, "fork server: %d forks from %d snapshots (%d evicted, ~%d KiB live), "+
				"%d walks over %d armed insts, "+
				"pruned %d masked + %d twin-converged of %d twin checks\n",
				st.Forks, st.SnapshotsTaken, st.SnapshotsEvicted, st.ApproxBytes/1024,
				st.Walks, st.ArmedInsts,
				st.PrunedMasked, st.PrunedTwin, st.TwinChecks)
		}
		if spec.Taint {
			// Companion tally: for each outcome above, how the taint
			// tracker explains it.
			verdicts := make(map[taint.Verdict]int)
			for _, r := range results {
				if r.Prop != nil {
					verdicts[r.Prop.Verdict]++
				}
			}
			fmt.Fprintln(stdout, "propagation verdicts:")
			for _, v := range taint.Verdicts() {
				if n := verdicts[v]; n > 0 {
					fmt.Fprintf(stdout, "  %-18s %5d\n", v, n)
				}
			}
		}
		if spec.Profile {
			if p := pool.Profile(); p != nil {
				fmt.Fprintln(stdout)
				if err := p.WriteTop(stdout, *profileTop); err != nil {
					return err
				}
			}
			syms := pool.Runner().Profiler().Symbols()
			rows, unattributed := campaign.AttributeByPC(results, syms)
			if len(rows) > *profileTop {
				rows = rows[:*profileTop]
			}
			fmt.Fprintln(stdout)
			if err := campaign.WritePCReport(stdout, rows, unattributed); err != nil {
				return err
			}
		}
		if spanOut != nil {
			if err := spanOut.close(stdout, stderr); err != nil {
				return err
			}
			if err := writeTrace(spanRec, *traceID, stdout, stderr); err != nil {
				return err
			}
		}
		if err := writeJSON(*jsonOut, results); err != nil {
			return err
		}
		if reg != nil {
			return reg.WriteText(stdout)
		}
		return nil

	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}

	// The figure drivers have no cancellation point; Ctrl-C abandons them.
	return untilDone(ctx, func() error {
		rep, err := report()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.String())
		if err := writeJSON(*jsonOut, rep); err != nil {
			return err
		}
		if reg != nil {
			return reg.WriteText(stdout)
		}
		return nil
	})
}

// writeTrace prints one kept trace's span timeline: the trace with ID
// id, or the most recent one for "last".
func writeTrace(rec *obs.SpanRecorder, id string, stdout, stderr io.Writer) error {
	if id == "" {
		return nil
	}
	var tr *obs.Trace
	if id == "last" {
		if ts := rec.Traces(); len(ts) > 0 {
			tr = ts[0]
		}
	} else {
		tr = rec.TraceByID(id)
	}
	if tr == nil {
		fmt.Fprintf(stderr, "trace %q not found (evicted or sampled out; %d dropped)\n", id, rec.Dropped())
		return nil
	}
	return tr.WriteText(stdout)
}

// writeJSON writes v as indented JSON to path; an empty path writes
// nothing.
func writeJSON(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
