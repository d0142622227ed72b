// Command gemfi runs one simulation: a guest program (mini-C or
// Thessaly-64 assembly) on a chosen CPU model, optionally with a fault
// description file in the paper's Listing-1 format.
//
// Examples:
//
//	gemfi -prog prog.mc
//	gemfi -prog prog.s -model pipelined -faults faults.txt -v
//	gemfi -workload dct -scale small -faults faults.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/httpserv"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/taint"
	"repro/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gemfi:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		progPath  = flag.String("prog", "", "guest program (.mc mini-C or .s assembly)")
		workload  = flag.String("workload", "", "built-in workload instead of -prog (dct|jacobi|pi|knapsack|deblock|canneal)")
		scaleName = flag.String("scale", "test", "workload scale: test|small|paper")
		faultFile = flag.String("faults", "", "fault description file (Listing-1 format)")
		model     = flag.String("model", "atomic", "CPU model: atomic|timing|pipelined")
		maxInsts  = flag.Uint64("max-insts", 2_000_000_000, "watchdog instruction limit")
		noFI      = flag.Bool("no-fi", false, "disable the fault injection engine entirely (vanilla simulator)")
		verbose   = flag.Bool("v", false, "print statistics and fault lifecycle details")
		traceN    = flag.Uint64("trace-insts", 0, "print the first N committed instructions")
		saveCkpt  = flag.String("save-checkpoint", "", "run to fi_read_init_all, save the checkpoint here, and exit")
		loadCkpt  = flag.String("restore", "", "restore this checkpoint before running (skips boot + init)")

		traceOut    = flag.String("trace", "", "write a Chrome trace_event JSON file (load in chrome://tracing or Perfetto)")
		traceJSONL  = flag.String("trace-jsonl", "", "stream trace events as JSON lines to this file")
		metricsDump = flag.Bool("metrics", false, "print the metrics registry (gem5 stats style) at exit")
		metricsJSON = flag.String("metrics-json", "", "write the metrics registry as JSON to this file at exit")
		validate    = flag.String("validate-trace", "", "validate a JSONL trace file against the event schema and exit")

		profile       = flag.Bool("profile", false, "profile the guest per PC and print the top-N table at exit")
		profileTop    = flag.Int("profile-top", 20, "rows in the -profile text table")
		profileJSON   = flag.String("profile-json", "", "write the guest profile as JSON to this file at exit (implies -profile)")
		profileFolded = flag.String("profile-folded", "", "write the guest profile in folded-stack (flamegraph) format to this file (implies -profile)")
		httpAddr      = flag.String("http", "", "serve live observability HTTP endpoints (/metrics /status /profile /taint /debug/pprof) on this address")
		validateProm  = flag.String("validate-prom", "", "validate a Prometheus text exposition file and exit")

		taintOn       = flag.Bool("taint", false, "track fault propagation and print the report at exit")
		taintDot      = flag.String("taint-dot", "", "write the propagation DAG as Graphviz DOT to this file (implies -taint)")
		taintJSON     = flag.String("taint-json", "", "write the propagation report as JSON to this file (implies -taint)")
		validateTaint = flag.String("validate-taint", "", "validate a propagation-report JSON file against the schema and exit")
		validateSpans = flag.String("validate-spans", "", "validate a span JSONL file (gemfi-campaign -spans-jsonl) against the span schema and exit")

		bbtOn    = flag.Bool("bbt", true, "translate hot basic blocks into fused closure chains on the atomic fast path")
		bbtStats = flag.Bool("bbt-stats", false, "print the block translator's counters (blocks compiled, hits, invalidations, fallbacks) at exit")

		flightOn    = flag.Bool("flight", false, "record the last -flight-depth committed instructions and print the post-mortem timeline if the run crashes")
		flightDepth = flag.Int("flight-depth", 0, "flight recorder ring size (0 = default)")
		validatePM  = flag.String("validate-postmortem", "", "validate a post-mortem JSON file (/postmortem/{id}) against the schema and exit")
	)
	flag.Parse()

	// The five -validate-* modes share one shape: open, check, report the
	// shared line-reader's verdict, exit.
	validators := []struct {
		path string
		run  func(io.Reader) (string, error)
	}{
		{*validate, func(r io.Reader) (string, error) {
			n, err := obs.ValidateJSONL(r)
			return fmt.Sprintf("%d events OK", n), err
		}},
		{*validateProm, func(r io.Reader) (string, error) {
			n, err := obs.ValidateProm(r)
			return fmt.Sprintf("%d samples OK", n), err
		}},
		{*validateTaint, func(r io.Reader) (string, error) {
			rep, err := taint.ValidateReportJSON(r)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("OK (verdict=%s nodes=%d edges=%d)",
				rep.Verdict, len(rep.Nodes), len(rep.Edges)), nil
		}},
		{*validateSpans, func(r io.Reader) (string, error) {
			n, err := obs.ValidateSpansJSONL(r)
			return fmt.Sprintf("%d spans OK", n), err
		}},
		{*validatePM, func(r io.Reader) (string, error) {
			pm, err := flight.ValidatePostmortemJSON(r)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("OK (outcome=%s records=%d finalPc=%#x)",
				pm.Outcome, len(pm.Records), pm.FinalPC()), nil
		}},
	}
	for _, v := range validators {
		if v.path == "" {
			continue
		}
		f, err := os.Open(v.path)
		if err != nil {
			return err
		}
		msg, err := v.run(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", v.path, err)
		}
		fmt.Printf("%s: %s\n", v.path, msg)
		return nil
	}
	wantTaint := *taintOn || *taintDot != "" || *taintJSON != ""

	prog, err := loadProgram(*progPath, *workload, *scaleName)
	if err != nil {
		return err
	}

	var faults []core.Fault
	if *faultFile != "" {
		f, err := os.Open(*faultFile)
		if err != nil {
			return err
		}
		faults, err = core.ParseFaults(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	cfg := sim.Config{
		Model:                   sim.ModelKind(*model),
		EnableFI:                !*noFI,
		Faults:                  faults,
		MaxInsts:                *maxInsts,
		SwitchToAtomicOnResolve: sim.ModelKind(*model) == sim.ModelPipelined,
		EnableBlockTranslation:  *bbtOn,
	}
	if *metricsDump || *metricsJSON != "" || *httpAddr != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if *profile || *profileJSON != "" || *profileFolded != "" || *httpAddr != "" {
		cfg.EnableProfiler = true
	}
	if *traceOut != "" || *traceJSONL != "" {
		cfg.Tracer = obs.NewTracer()
	}
	if wantTaint || *httpAddr != "" {
		cfg.EnableTaint = true
	}
	if *flightOn {
		cfg.EnableFlight = true
		cfg.FlightDepth = *flightDepth
	}
	var jsonlFile *os.File
	if *traceJSONL != "" {
		var err error
		jsonlFile, err = os.Create(*traceJSONL)
		if err != nil {
			return err
		}
		cfg.Tracer.StreamJSONL(jsonlFile)
	}
	// dumpObs flushes the observability outputs; every exit path that ran
	// any simulation calls it.
	dumpObs := func() error {
		if jsonlFile != nil {
			if err := cfg.Tracer.Flush(); err != nil {
				return err
			}
			if err := jsonlFile.Close(); err != nil {
				return err
			}
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			if err := cfg.Tracer.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("trace written to %s (%d events)\n", *traceOut, len(cfg.Tracer.Events()))
		}
		if *metricsDump {
			if err := cfg.Metrics.WriteText(os.Stdout); err != nil {
				return err
			}
		}
		if *metricsJSON != "" {
			f, err := os.Create(*metricsJSON)
			if err != nil {
				return err
			}
			if err := cfg.Metrics.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	s := sim.New(cfg)
	if err := s.Load(prog); err != nil {
		return err
	}
	if *traceN > 0 {
		// Symbolize the trace against the program's function symbols;
		// Format falls back to bare hex for PCs outside every symbol.
		syms := prog.Symbols()
		var traced uint64
		s.Core.Observers = append(s.Core.Observers, cpu.TraceFunc(func(pc uint64, in isa.Inst) {
			if traced < *traceN {
				fmt.Printf("%12d  0x%06x  %-24s  %s\n",
					s.Core.Insts+1, pc, syms.Format(pc), in.Disassemble(pc))
				traced++
			}
		}))
	}
	var golden *taint.GoldenState // set by the clean replay below
	if *httpAddr != "" {
		srv, err := httpserv.New(*httpAddr, httpserv.Config{
			Metrics: cfg.Metrics,
			Status: func() any {
				return map[string]any{"insts": s.Core.Insts, "ticks": s.Core.Ticks}
			},
			Profile: func() *prof.Profile {
				if pr := s.Profiler(); pr != nil {
					return pr.Snapshot()
				}
				return nil
			},
			Taint: func() *taint.PropReport {
				if s.Taint() == nil {
					return nil
				}
				return s.TaintReport(false, golden)
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability server on http://%s\n", srv.Addr())
	}
	// dumpProfile writes the requested guest-profile outputs at exit.
	dumpProfile := func() error {
		pr := s.Profiler()
		if pr == nil {
			return nil
		}
		snap := pr.Snapshot()
		if *profile {
			if err := snap.WriteTop(os.Stdout, *profileTop); err != nil {
				return err
			}
		}
		if *profileJSON != "" {
			f, err := os.Create(*profileJSON)
			if err != nil {
				return err
			}
			if err := snap.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		if *profileFolded != "" {
			f, err := os.Create(*profileFolded)
			if err != nil {
				return err
			}
			if err := snap.WriteFolded(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	}

	// Checkpoint workflows (the paper's campaign fast-forwarding, as a
	// command line round trip).
	if *saveCkpt != "" {
		st, res, err := s.RunToCheckpoint()
		if err != nil {
			return fmt.Errorf("program ended before fi_read_init_all (%+v): %w", res, err)
		}
		if err := st.SaveFile(*saveCkpt); err != nil {
			return err
		}
		fmt.Printf("checkpoint saved to %s after %d instructions\n", *saveCkpt, res.Insts)
		return dumpObs()
	}
	var ckptState *checkpoint.State
	if *loadCkpt != "" {
		st, err := checkpoint.LoadFile(*loadCkpt)
		if err != nil {
			return err
		}
		ckptState = st
		s.Restore(st, faults)
	}

	if s.Taint() != nil && len(faults) > 0 {
		// Golden replay: run the same program fault-free on a throwaway
		// simulator so the taint differ can tell masked-logically (taint
		// alive but final state identical) from reached-state corruption.
		gcfg := cfg
		gcfg.Faults = nil
		gcfg.Tracer = nil
		gcfg.Metrics = nil
		gcfg.EnableProfiler = false
		gcfg.EnableTaint = false
		gs := sim.New(gcfg)
		if err := gs.Load(prog); err != nil {
			return err
		}
		if ckptState != nil {
			gs.Restore(ckptState, nil)
		}
		if gr := gs.Run(); !gr.Failed() {
			golden = taint.CaptureGolden(&gs.Core.Arch, gs.Mem)
		}
	}

	r := s.Run()

	if r.Console != "" {
		fmt.Print(r.Console)
		if !strings.HasSuffix(r.Console, "\n") {
			fmt.Println()
		}
	}
	switch {
	case r.Crashed:
		fmt.Printf("CRASHED: %s\n", r.CrashCause)
	case r.Hung:
		fmt.Printf("HUNG after %d instructions\n", r.Insts)
	default:
		fmt.Printf("exit status %d\n", r.ExitStatus)
	}
	if *bbtStats {
		if s.BBT != nil {
			st := s.BBT.Stats
			fmt.Printf("bbt: %d blocks compiled (%d poisoned), %d hits, %d insts translated, %d invalidations, %d fallbacks\n",
				st.Compiled, st.Poisoned, st.Hits, st.Insts, st.Invalidations, st.Fallbacks)
		} else {
			fmt.Println("bbt: translation disabled")
		}
	}
	if *verbose {
		fmt.Printf("instructions: %d  ticks: %d  model: %s  switched: %v\n",
			r.Insts, r.Ticks, r.Model, r.Switched)
		for _, oc := range r.Outcomes {
			fmt.Printf("fault %q: fired=%v committed=%v squashed=%v propagated=%v overwritten=%v detail=%q\n",
				oc.Fault.String(), oc.Fired, oc.Committed, oc.Squashed, oc.Propagated, oc.Overwritten, oc.Detail)
		}
	}
	if wantTaint && s.Taint() != nil {
		rep := s.TaintReport(r.Failed(), golden)
		if *taintOn {
			if err := rep.WriteText(os.Stdout); err != nil {
				return err
			}
		}
		if *taintDot != "" {
			f, err := os.Create(*taintDot)
			if err != nil {
				return err
			}
			if err := rep.WriteDOT(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("propagation DAG written to %s (%d nodes)\n", *taintDot, len(rep.Nodes))
		}
		if *taintJSON != "" {
			f, err := os.Create(*taintJSON)
			if err != nil {
				return err
			}
			if err := rep.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if *flightOn {
		if fr := s.Flight(); fr != nil && r.Failed() && fr.Committed() > 0 {
			pm := &flight.Postmortem{
				Outcome:    "crashed",
				CrashCause: r.CrashCause,
				Depth:      fr.Depth(),
				Committed:  fr.Committed(),
				Squashed:   fr.Squashed(),
				Records:    fr.Records(),
				Keyframes:  fr.Keyframes(),
			}
			if t := s.Core.Trap; t != nil {
				pm.AppendTrap(t.PC, uint32(t.Word))
			}
			if err := pm.WriteText(os.Stdout); err != nil {
				return err
			}
		} else if !r.Failed() {
			fmt.Println("flight recorder: run completed normally, no post-mortem")
		}
	}
	if err := dumpProfile(); err != nil {
		return err
	}
	if err := dumpObs(); err != nil {
		return err
	}
	if r.Failed() {
		os.Exit(2)
	}
	return nil
}

// loadProgram builds the guest image from a file or a named workload.
func loadProgram(path, workload, scaleName string) (*asm.Program, error) {
	if workload != "" {
		scale, err := parseScale(scaleName)
		if err != nil {
			return nil, err
		}
		w, err := workloads.ByName(workload, scale)
		if err != nil {
			return nil, err
		}
		return w.Build()
	}
	if path == "" {
		return nil, fmt.Errorf("need -prog or -workload")
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".s") || strings.HasSuffix(path, ".asm") {
		return asm.Assemble(string(src))
	}
	return minic.Compile(string(src))
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
