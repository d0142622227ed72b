// Command gemfi-now distributes a fault injection campaign over a
// network of workstations (Section III.E of the paper).
//
// Master (runs the golden simulation, holds the checkpoint and queue —
// the campaign service with no local slots, hosting one campaign):
//
//	gemfi-now master -addr :7070 -workload pi -scale small -n 500
//
// Worker (one per workstation; -slots experiments run simultaneously;
// the model, watchdog, fork server and observers come from the master):
//
//	gemfi-now worker -addr master-host:7070 -slots 4
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/now"
	"repro/internal/obs"
	"repro/internal/serv"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gemfi-now:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("usage: gemfi-now master|worker|prepare|filework|collect [flags]")
	}
	switch os.Args[1] {
	case "master":
		return runMaster(os.Args[2:])
	case "worker":
		return runWorker(os.Args[2:])
	case "prepare":
		return runPrepare(os.Args[2:])
	case "filework":
		return runFileWorker(os.Args[2:])
	case "collect":
		return runCollect(os.Args[2:])
	}
	return fmt.Errorf("unknown subcommand %q (master|worker|prepare|filework|collect)", os.Args[1])
}

// runPrepare populates a shared-filesystem campaign directory (the
// paper's original NFS-based mechanism): checkpoint + one Listing-1
// fault file per experiment.
func runPrepare(args []string) error {
	fs := flag.NewFlagSet("prepare", flag.ExitOnError)
	var (
		dir       = fs.String("share", "", "shared directory (required)")
		workload  = fs.String("workload", "pi", "workload name")
		scaleName = fs.String("scale", "test", "test|small|paper")
		n         = fs.Int("n", 100, "number of experiments")
		seed      = fs.Int64("seed", 1, "campaign seed")
		model     = fs.String("model", "atomic", "CPU model")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("prepare needs -share")
	}
	scale, err := parseScale(*scaleName)
	if err != nil {
		return err
	}
	modelKind, err := sim.ParseModel(*model)
	if err != nil {
		return err
	}
	// First pass discovers the injection window; second writes the real
	// experiment set.
	probeDir, err := os.MkdirTemp("", "gemfi-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(probeDir)
	if err := now.PrepareShare(probeDir, now.ShareConfig{Workload: *workload, Scale: scale, Model: modelKind}); err != nil {
		return err
	}
	window, err := now.ShareWindowInsts(probeDir)
	if err != nil {
		return err
	}
	exps := campaign.GenerateUniform(*n, campaign.GenConfig{WindowInsts: window, Seed: *seed})
	if err := now.PrepareShare(*dir, now.ShareConfig{
		Workload: *workload, Scale: scale, Model: modelKind, Experiments: exps,
	}); err != nil {
		return err
	}
	fmt.Printf("share %s prepared: %d experiments of %s\n", *dir, len(exps), *workload)
	return nil
}

// runFileWorker drains experiments from a prepared share.
func runFileWorker(args []string) error {
	fs := flag.NewFlagSet("filework", flag.ExitOnError)
	dir := fs.String("share", "", "shared directory (required)")
	requeue := fs.Bool("requeue", false, "requeue stale claims before working")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("filework needs -share")
	}
	if *requeue {
		n, err := now.RequeueStaleClaims(*dir)
		if err != nil {
			return err
		}
		fmt.Printf("requeued %d stale claims\n", n)
	}
	n, err := now.FileWorker(*dir)
	fmt.Printf("worker completed %d experiments\n", n)
	return err
}

// runCollect summarizes the results on a share.
func runCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	dir := fs.String("share", "", "shared directory (required)")
	n := fs.Int("n", 0, "expected result count (0 = whatever is present)")
	waitSec := fs.Int("wait", 0, "seconds to wait for results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("collect needs -share")
	}
	results, err := now.CollectResults(*dir, *n, time.Duration(*waitSec)*time.Second)
	if err != nil && len(results) == 0 {
		return err
	}
	tally := campaign.TallyOf(results)
	fmt.Printf("campaign results: %d experiments\n", tally.Total())
	for _, o := range campaign.Outcomes() {
		fmt.Printf("  %-18s %5d (%5.1f%%)\n", o, tally[o], 100*tally.Fraction(o))
	}
	return nil
}

// forever is the wait bound of a campaign that runs until it is done.
const forever = time.Duration(math.MaxInt64)

// runMaster is the campaign service with no local slots hosting one
// uniform campaign: it runs the golden pass, then serves the checkpoint
// and the experiment queue to workers and journals their results on a
// temporary journal. For a durable, multi-campaign master run gemfi-serve
// -now and submit with gemfi-campaign -server.
func runMaster(args []string) error {
	fs := flag.NewFlagSet("master", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7070", "listen address")
		workload  = fs.String("workload", "pi", "workload name")
		scaleName = fs.String("scale", "test", "test|small|paper")
		n         = fs.Int("n", 100, "number of experiments")
		seed      = fs.Int64("seed", 1, "campaign seed")
		model     = fs.String("model", "atomic", "CPU model")
		metrics   = fs.Bool("metrics", false, "print master telemetry (serv.*) at exit")
		httpAddr  = fs.String("http", "", "serve the campaign API and observability endpoints (/campaigns /metrics /status /traces) on this address")
		drain     = fs.Duration("drain", 30*time.Second, "in-flight drain bound on SIGINT/SIGTERM")

		forkOn     = fs.Bool("fork", false, "fork-server mode, on every worker (via the welcome message): each slot runs one local trunk and forks experiments from COW snapshots instead of replaying the shipped checkpoint")
		taintOn    = fs.Bool("taint", false, "track fault propagation on every worker (via the welcome message); verdict summaries ride back on each result")
		flightOn   = fs.Bool("flight", false, "ask workers (via the welcome message) to flight-record: crashed/SDC results arrive with post-mortem dumps attached")
		spanSample = fs.Int("span-sample", 1, "keep 1 in N experiment traces (crashed/SDC traces are always kept)")
		spansJSONL = fs.String("spans-jsonl", "", "trace every experiment end to end (worker-side spans stitch under the master's experiment span) and write the span trees to this JSONL file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	var spanRec *obs.SpanRecorder
	if *spansJSONL != "" || *httpAddr != "" {
		spanRec = obs.NewSpanRecorder()
		spanRec.SetSampling(*spanSample)
	}
	dir, err := os.MkdirTemp("", "gemfi-now-master")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := serv.New(serv.Config{Dir: dir, Slots: -1, Metrics: reg, Spans: spanRec, Flight: *flightOn})
	if err != nil {
		return err
	}
	defer s.Shutdown(*drain)
	id, err := s.Submit(serv.CampaignSpec{Workload: *workload, Scale: *scaleName, Model: *model, N: *n, Seed: *seed,
		Fork: *forkOn, Taint: *taintOn})
	if err != nil {
		return err
	}
	// Workers are welcomed with the checkpoint, so the port opens once the
	// golden run has produced it.
	s.WaitPrepared(id, forever)
	c, _ := s.Campaign(id)
	if st := c.Status(); st.Phase == serv.PhaseFailed {
		return fmt.Errorf("campaign preparation: %s", st.Error)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	s.ServeWorkers(ln)
	if *httpAddr != "" {
		srv, hln, err := s.Serve(*httpAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability server on http://%s\n", hln.Addr())
	}
	fmt.Printf("master: serving %d experiments of %s on %s\n", *n, *workload, ln.Addr())

	// Graceful shutdown: a signal drains in-flight experiments within the
	// -drain bound and reports whatever completed, instead of dropping
	// results already paid for on other machines.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	doneCh := make(chan struct{})
	go func() {
		s.Wait(id, forever)
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "master: %v — draining in-flight experiments (bound %s)\n", sig, *drain)
	}
	_ = ln.Close()
	if err := s.Shutdown(*drain); err != nil {
		return err
	}
	tally := campaign.TallyOf(c.Results())
	fmt.Printf("campaign complete: %d experiments (%d requeued after disconnects)\n",
		tally.Total(), reg.Counter("serv.now.requeued").Value())
	for _, o := range campaign.Outcomes() {
		fmt.Printf("  %-18s %5d (%5.1f%%)\n", o, tally[o], 100*tally.Fraction(o))
	}
	if spanRec != nil && *spansJSONL != "" {
		f, err := os.Create(*spansJSONL)
		if err != nil {
			return err
		}
		if err := spanRec.WriteSpansJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spans written to %s (%d spans dropped by sampling/ring)\n", *spansJSONL, spanRec.Dropped())
	}
	if *metrics {
		return reg.WriteText(os.Stdout)
	}
	return nil
}

// runWorker runs one workstation. Its flags are deployment settings
// only: the master's welcome carries every setting that can change a
// result.
func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7070", "master address")
		slots      = fs.Int("slots", 4, "simultaneous experiments")
		name       = fs.String("name", "", "worker name for master logs")
		dialTries  = fs.Int("dial-attempts", 5, "connection attempts before giving up")
		expTimeout = fs.Duration("exp-timeout", 0, "per-experiment wall-time bound (0 = unbounded)")
		retries    = fs.Int("retries", 2, "local retries for a timed-out experiment")
		heartbeat  = fs.Duration("heartbeat", 5*time.Second, "liveness message interval (0 = off)")
		metrics    = fs.Bool("metrics", false, "print worker telemetry (now.worker.*) at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	w := now.NewWorker(now.WorkerConfig{
		Addr: *addr, Slots: *slots, Name: *name,
		DialAttempts: *dialTries,
		ExpTimeout:   *expTimeout, ExpRetries: *retries,
		Heartbeat: *heartbeat,
		Metrics:   reg,
	})
	n, err := w.Run()
	fmt.Printf("worker: completed %d experiments\n", n)
	if reg != nil {
		if werr := reg.WriteText(os.Stdout); werr != nil && err == nil {
			err = werr
		}
	}
	return err
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
