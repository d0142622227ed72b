package main

import (
	"context"
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

// runCmd runs one simulation: a guest program (mini-C or Thessaly-64
// assembly) or a built-in workload on a chosen CPU model, optionally
// with a fault description file in the paper's Listing-1 format.
//
//	gemfi run -prog prog.mc
//	gemfi run -prog prog.s -model pipelined -faults faults.txt -v
//	gemfi run -workload dct -scale small -faults faults.txt
func runCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("run", stderr)
	var (
		progPath  = fs.String("prog", "", "guest program (.mc mini-C or .s assembly)")
		workload  = fs.String("workload", "", "built-in workload instead of -prog (dct|jacobi|pi|knapsack|deblock|canneal)")
		scaleName = fs.String("scale", "test", "workload scale: test|small|paper")
		faultFile = fs.String("faults", "", "fault description file (Listing-1 format)")
		model     = fs.String("model", "atomic", "CPU model: atomic|timing|pipelined")
		maxInsts  = fs.Uint64("max-insts", 2_000_000_000, "watchdog instruction limit")
		noFI      = fs.Bool("no-fi", false, "disable the fault injection engine entirely (vanilla simulator)")
		verbose   = fs.Bool("v", false, "print statistics and fault lifecycle details")
		traceN    = fs.Uint64("trace-insts", 0, "print the first N committed instructions")
		saveCkpt  = fs.String("save-checkpoint", "", "run to fi_read_init_all, save the checkpoint here, and exit")
		loadCkpt  = fs.String("restore", "", "restore this checkpoint before running (skips boot + init)")

		spansJSONL  = fs.String("spans-jsonl", "", "write the run's span tree (phases and fault lifecycle) as JSON lines to this file (check with gemfi validate spans)")
		spansChrome = fs.String("spans-chrome", "", "write the run's span tree as Chrome/Perfetto catapult JSON to this file")
		metricsDump = fs.Bool("metrics", false, "print the metrics registry (gem5 stats style) at exit")
		metricsJSON = fs.String("metrics-json", "", "write the metrics registry as JSON to this file at exit")

		profile       = fs.Bool("profile", false, "profile the guest per PC and print the top-N table at exit")
		profileTop    = fs.Int("profile-top", 20, "rows in the -profile text table")
		profileJSON   = fs.String("profile-json", "", "write the guest profile as JSON to this file at exit (implies -profile)")
		profileFolded = fs.String("profile-folded", "", "write the guest profile in folded-stack (flamegraph) format to this file (implies -profile)")
		httpAddr      = fs.String("http", "", "serve live observability HTTP endpoints (/metrics /status /profile /taint /debug/pprof) on this address")

		taintOn   = fs.Bool("taint", false, "track fault propagation and print the report at exit")
		taintDot  = fs.String("taint-dot", "", "write the propagation DAG as Graphviz DOT to this file (implies -taint)")
		taintJSON = fs.String("taint-json", "", "write the propagation report as JSON to this file (implies -taint)")

		bbtOn    = fs.Bool("bbt", true, "translate hot basic blocks into fused closure chains on the atomic fast path")
		bbtStats = fs.Bool("bbt-stats", false, "print the block translator's counters (blocks compiled, hits, invalidations, fallbacks) at exit")

		flightOn    = fs.Bool("flight", false, "record the last -flight-depth committed instructions and print the post-mortem timeline if the run crashes")
		flightDepth = fs.Int("flight-depth", 0, "flight recorder ring size (0 = default)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	// A checkpoint save runs untraced, so its span outputs would be empty.
	if *saveCkpt != "" && (*spansJSONL != "" || *spansChrome != "") {
		return fmt.Errorf("-save-checkpoint cannot be combined with -spans-jsonl or -spans-chrome: the checkpoint run is not traced")
	}
	wantTaint := *taintOn || *taintDot != "" || *taintJSON != ""
	modelKind, err := sim.ParseModel(*model)
	if err != nil {
		return err
	}

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
		Model:                  modelKind,
		EnableFI:               !*noFI,
		Faults:                 faults,
		MaxInsts:               *maxInsts,
		EnableBlockTranslation: *bbtOn,
		EnableProfiler:         *profile || *profileJSON != "" || *profileFolded != "" || *httpAddr != "",
		EnableTaint:            wantTaint || *httpAddr != "",
		EnableFlight:           *flightOn,
		FlightDepth:            *flightDepth,
	}
	if *metricsDump || *metricsJSON != "" || *httpAddr != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	var spans *obs.SpanRecorder
	var spanOut *spanFiles
	if *spansJSONL != "" || *spansChrome != "" {
		spans = obs.NewSpanRecorder()
		if spanOut, err = openSpanFiles(spans, *spansJSONL, *spansChrome); err != nil {
			return err
		}
	}
	// dumpObs writes the observability outputs; every exit path that ran
	// any simulation calls it.
	dumpObs := func() error {
		if spanOut != nil {
			if err := spanOut.close(stdout, stderr); err != nil {
				return err
			}
		}
		if *metricsDump {
			if err := cfg.Metrics.WriteText(stdout); err != nil {
				return err
			}
		}
		return writeFile(*metricsJSON, cfg.Metrics.WriteJSON)
	}
	s := sim.New(cfg)
	if err := s.Load(prog); err != nil {
		return err
	}
	defer context.AfterFunc(ctx, s.Interrupt)()
	if *traceN > 0 {
		// Symbolize the trace against the program's function symbols;
		// Format falls back to bare hex for PCs outside every symbol.
		syms := prog.Symbols()
		var traced uint64
		s.Core.Observers = append(s.Core.Observers, cpu.TraceFunc(func(pc uint64, in isa.Inst) {
			if traced < *traceN {
				fmt.Fprintf(stdout, "%12d  0x%06x  %-24s  %s\n",
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
		fmt.Fprintf(stderr, "observability server on http://%s\n", srv.Addr())
	}
	// dumpProfile writes the requested guest-profile outputs at exit.
	dumpProfile := func() error {
		pr := s.Profiler()
		if pr == nil {
			return nil
		}
		snap := pr.Snapshot()
		if *profile {
			if err := snap.WriteTop(stdout, *profileTop); err != nil {
				return err
			}
		}
		if err := writeFile(*profileJSON, snap.WriteJSON); err != nil {
			return err
		}
		return writeFile(*profileFolded, snap.WriteFolded)
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
		fmt.Fprintf(stdout, "checkpoint saved to %s after %d instructions\n", *saveCkpt, res.Insts)
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
		defer context.AfterFunc(ctx, gs.Interrupt)()
		if gr := gs.Run(); !gr.Failed() {
			golden = taint.CaptureGolden(&gs.Core.Arch, gs.Mem)
		}
	}

	r, _ := s.RunTraced(spans)
	if err := ctx.Err(); err != nil {
		return err
	}

	if r.Console != "" {
		fmt.Fprint(stdout, r.Console)
		if !strings.HasSuffix(r.Console, "\n") {
			fmt.Fprintln(stdout)
		}
	}
	switch {
	case r.Crashed:
		fmt.Fprintf(stdout, "CRASHED: %s\n", r.CrashCause)
	case r.Hung:
		fmt.Fprintf(stdout, "HUNG after %d instructions\n", r.Insts)
	default:
		fmt.Fprintf(stdout, "exit status %d\n", r.ExitStatus)
	}
	if *bbtStats {
		if s.BBT != nil {
			st := s.BBT.Stats
			fmt.Fprintf(stdout, "bbt: %d blocks compiled (%d poisoned), %d hits, %d insts translated, %d invalidations, %d fallbacks\n",
				st.Compiled, st.Poisoned, st.Hits, st.Insts, st.Invalidations, st.Fallbacks)
		} else {
			fmt.Fprintln(stdout, "bbt: translation disabled")
		}
	}
	if *verbose {
		fmt.Fprintf(stdout, "instructions: %d  ticks: %d  model: %s  switched: %v\n",
			r.Insts, r.Ticks, r.Model, r.Switched)
		for _, oc := range r.Outcomes {
			fmt.Fprintf(stdout, "fault %q: fired=%v committed=%v squashed=%v propagated=%v overwritten=%v detail=%q\n",
				oc.Fault.String(), oc.Fired, oc.Committed, oc.Squashed, oc.Propagated, oc.Overwritten, oc.Detail)
		}
	}
	if wantTaint && s.Taint() != nil {
		rep := s.TaintReport(r.Failed(), golden)
		if *taintOn {
			if err := rep.WriteText(stdout); err != nil {
				return err
			}
		}
		if err := writeFile(*taintDot, rep.WriteDOT); err != nil {
			return err
		}
		if *taintDot != "" {
			fmt.Fprintf(stdout, "propagation DAG written to %s (%d nodes)\n", *taintDot, len(rep.Nodes))
		}
		if err := writeFile(*taintJSON, rep.WriteJSON); err != nil {
			return err
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
			if err := pm.WriteText(stdout); err != nil {
				return err
			}
		} else if !r.Failed() {
			fmt.Fprintln(stdout, "flight recorder: run completed normally, no post-mortem")
		}
	}
	if err := dumpProfile(); err != nil {
		return err
	}
	if err := dumpObs(); err != nil {
		return err
	}
	if r.Failed() {
		return errGuestFailed
	}
	return nil
}

// loadProgram builds the guest image from a named workload or, without
// one, from a file.
func loadProgram(path, workload, scaleName string) (*asm.Program, error) {
	if workload != "" {
		scale, err := workloads.ParseScale(scaleName)
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
	return loadFile(path)
}

// loadFile assembles a .s or .asm file and compiles anything else as
// mini-C.
func loadFile(path string) (*asm.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".s") || strings.HasSuffix(path, ".asm") {
		return asm.Assemble(string(src))
	}
	return minic.Compile(string(src))
}
