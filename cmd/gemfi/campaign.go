package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/serv"
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
// A custom campaign runs on an in-process campaign service, with
// -parallel local slots and a temporary journal. With -server it is
// instead a client of a gemfi serve campaign service:
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
		httpAddr   = fs.String("http", "", "serve the campaign API and live observability endpoints (/campaigns /metrics /status?campaign=<id> /profile /taint /traces /debug/pprof) during the campaign (custom experiment)")
		profileTop = fs.Int("profile-top", 20, "rows in the -profile tables")

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
	fs.BoolVar(&spec.Fork, "fork", false, "fork-server mode: one atomic trunk run freezes COW snapshots across the fault window; experiments fork from the closest one instead of replaying the warm-up, walk to their triggers in groups, and provably decided ones end early except under -profile/-taint/-flight (custom experiment)")
	fs.BoolVar(&spec.Flight, "flight", false, "flight recorder: dump the last committed instructions of every crashed/SDC experiment onto its result (custom experiment; served at /postmortem/{id} with -http)")
	fs.StringVar(&spec.Sampling, "sampling", "", "sampling mode: uniform|adaptive (custom experiment, -submit)")
	fs.IntVar(&spec.Strata, "strata", 0, "adaptive strata count (0 = service default)")
	fs.IntVar(&spec.Batch, "batch", 0, "adaptive batch size (0 = service default)")
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
	if *metrics {
		reg = obs.NewRegistry()
	}
	// The configuration every figure's runners use. MaxInsts stays zero:
	// each runner derives its watchdog from its workload's golden run.
	cfg := campaign.SimConfig(modelKind, 0)
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
		return hostCampaign(ctx, spec, hostOptions{
			slots: *parallel, httpAddr: *httpAddr, drain: 30 * time.Second,
			metrics: *metrics, progress: *progress, profileTop: *profileTop, jsonOut: *jsonOut,
			spanSample: *spanSample, spansJSONL: *spansJSONL, spansChrome: *spansChrome, traceID: *traceID,
		}, stdout, stderr)

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

// hostOptions are what one hosted campaign runs with besides its spec:
// the local slots and NoW worker listener that tell a local campaign
// from a NoW master, and the outputs the commands offer.
type hostOptions struct {
	slots      int    // local runners; negative runs nothing locally
	workerAddr string // serve NoW workers here once the golden run is done
	httpAddr   string // serve the campaign API and observability here
	drain      time.Duration

	metrics, progress bool
	profileTop        int
	jsonOut           string

	spanSample                       int
	spansJSONL, spansChrome, traceID string
}

// hostCampaign runs spec on an in-process campaign service with a
// temporary journal — every campaign gemfi runs itself, local or NoW
// master — and prints its reports: the tally, then the flight, fork,
// taint and profile reports the spec asks for. Cancelling ctx drains the
// service and reports what finished.
func hostCampaign(ctx context.Context, spec *serv.CampaignSpec, o hostOptions, stdout, stderr io.Writer) error {
	reg := obs.NewRegistry()
	var spanRec *obs.SpanRecorder
	var spanOut *spanFiles
	if o.spansJSONL != "" || o.spansChrome != "" || o.traceID != "" || o.httpAddr != "" {
		spanRec = obs.NewSpanRecorder()
		spanRec.SetSampling(o.spanSample)
		var err error
		if spanOut, err = openSpanFiles(spanRec, o.spansJSONL, o.spansChrome); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp("", "gemfi-campaign")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := serv.New(serv.Config{Dir: dir, Slots: o.slots, Metrics: reg, Spans: spanRec})
	if err != nil {
		return err
	}
	defer s.Shutdown(o.drain)
	id, err := s.Submit(*spec)
	if err != nil {
		return err
	}
	c, _ := s.Campaign(id)
	var listeners []io.Closer
	if o.httpAddr != "" {
		srv, ln, err := s.Serve(o.httpAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		listeners = append(listeners, srv)
		fmt.Fprintf(stderr, "observability server on http://%s (campaign %s)\n", ln.Addr(), id)
	}
	if o.workerAddr != "" {
		// Workers are welcomed with the checkpoint, so the port opens once
		// the golden run has produced it.
		for !s.WaitPrepared(id, 100*time.Millisecond) {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if st := c.Status(); st.Phase == serv.PhaseFailed {
			return fmt.Errorf("campaign preparation: %s", st.Error)
		}
		ln, err := net.Listen("tcp", o.workerAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		s.ServeWorkers(ln)
		listeners = append(listeners, ln)
		fmt.Fprintf(stdout, "master: serving %d experiments of %s on %s\n", spec.N, spec.Workload, ln.Addr())
	}

	last := time.Now()
	finished := func() bool {
		done := s.Wait(id, 100*time.Millisecond)
		if o.progress && (done || time.Since(last) >= 2*time.Second) {
			last = time.Now()
			st := c.Status()
			fmt.Fprintf(stderr, "campaign: %d/%d experiments (%.1f exp/s)\n", st.Done, st.Budget, float64(st.Done)/st.ElapsedSec)
		}
		return done
	}
	if err := drain(ctx, s, finished, o.drain, stderr, listeners...); err != nil {
		return err
	}
	st := c.Status()
	if st.Phase == serv.PhaseFailed {
		return fmt.Errorf("campaign %s: %s", id, st.Error)
	}

	results := c.Results()
	tally := campaign.TallyOf(results)
	verb := "complete"
	if st.Phase != serv.PhaseDone {
		verb = "stopped"
	}
	header := fmt.Sprintf("campaign %s: %d experiments of %s", verb, tally.Total(), spec.Workload)
	if o.workerAddr != "" {
		header += fmt.Sprintf(" (%d requeued after disconnects)", reg.Counter("serv.now.requeued").Value())
	}
	writeTally(stdout, header, tally)
	dumps, verdicts := 0, make(map[taint.Verdict]int)
	for _, r := range results {
		if r.Postmortem != nil {
			dumps++
		}
		if r.Prop != nil {
			verdicts[r.Prop.Verdict]++
		}
	}
	if spec.Flight {
		fmt.Fprintf(stdout, "flight recorder: %d post-mortem dumps (crashed/SDC/reached-state)\n", dumps)
	}
	if spec.Fork && o.slots >= 0 {
		fs := c.ForkStats()
		fmt.Fprintf(stdout, "fork server: %d forks from %d snapshots (%d evicted, ~%d KiB live), "+
			"%d walks over %d armed insts, "+
			"%d pre-classified dead-register faults, "+
			"pruned %d masked + %d twin-converged of %d twin checks\n",
			fs.Forks, fs.SnapshotsTaken, fs.SnapshotsEvicted, fs.ApproxBytes/1024,
			fs.Walks, fs.ArmedInsts,
			fs.Preclassified,
			fs.PrunedMasked, fs.PrunedTwin, fs.TwinChecks)
	}
	if spec.Taint {
		// Companion tally: for each outcome above, how the taint tracker
		// explains it.
		fmt.Fprintln(stdout, "propagation verdicts:")
		for _, v := range taint.Verdicts() {
			if n := verdicts[v]; n > 0 {
				fmt.Fprintf(stdout, "  %-18s %5d\n", v, n)
			}
		}
	}
	if p := c.Profile(); spec.Profile && p != nil {
		fmt.Fprintln(stdout)
		if err := p.WriteTop(stdout, o.profileTop); err != nil {
			return err
		}
		rows, unattributed := campaign.AttributeByPC(results, p.Symbols())
		if len(rows) > o.profileTop {
			rows = rows[:o.profileTop]
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
		if err := writeTrace(spanRec, o.traceID, stdout, stderr); err != nil {
			return err
		}
	}
	if err := writeJSON(o.jsonOut, results); err != nil {
		return err
	}
	if o.metrics {
		if err := reg.WriteText(stdout); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("campaign stopped after %d of %d experiments: %w", tally.Total(), spec.N, err)
	}
	return nil
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
