package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/campaign"
	"repro/internal/now"
	"repro/internal/obs"
	"repro/internal/serv"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// serveCmd runs the durable campaign service: a long-running server that
// accepts fault-injection campaign specs over HTTP, executes them on a
// local runner pool (and, with -now, on network-of-workstation
// workers), journals every state transition so a crash or restart
// resumes mid-campaign with exactly-once accounting, and streams
// progress to any number of watchers.
//
//	gemfi serve -addr :8080 -dir /var/lib/gemfi -slots 8 -now :7070
//
// Submit and watch with gemfi campaign -server, or raw curl:
//
//	curl -X POST localhost:8080/campaigns -d '{"workload":"pi","n":500}'
//	curl localhost:8080/campaigns/c0001/stream
func serveCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("serve", stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:8080", "HTTP listen address (campaign API + observability)")
		dir     = fs.String("dir", "gemfi-serve.d", "journal directory (campaigns survive restarts here)")
		slots   = fs.Int("slots", 4, "concurrent local experiment executions across all campaigns (negative: none, NoW workers run every experiment)")
		nowAddr = fs.String("now", "", "also serve NoW workers (gemfi now worker -addr) on this address")
		bound   = fs.Duration("drain", 30*time.Second, "in-flight drain bound on SIGINT/SIGTERM")
		metrics = fs.Bool("metrics", false, "print the service metrics registry at exit")

		spansOff   = fs.Bool("no-spans", false, "disable distributed span tracing (/trace and /traces endpoints)")
		spanSample = fs.Int("span-sample", 1, "keep 1 in N experiment traces (head sampling; crashed/SDC traces are always kept)")
		spanRing   = fs.Int("span-ring", 0, "recent-trace ring capacity (0 = default)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	// The registry always exists — /metrics is part of the API surface;
	// -metrics additionally dumps it at exit. Same for span tracing:
	// /trace/{id} is part of the API surface unless -no-spans.
	reg := obs.NewRegistry()
	var spans *obs.SpanRecorder
	if !*spansOff {
		spans = obs.NewSpanRecorder()
		spans.SetSampling(*spanSample)
		if *spanRing > 0 {
			spans.SetRingCap(*spanRing)
		}
	}
	s, err := serv.New(serv.Config{Dir: *dir, Slots: *slots, Metrics: reg, Spans: spans})
	if err != nil {
		return err
	}
	defer s.Shutdown(*bound)
	srv, ln, err := s.Serve(*addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "campaign service on http://%s (journal %s, %d slots)\n", ln.Addr(), *dir, *slots)

	listeners := []io.Closer{srv}
	if *nowAddr != "" {
		nowLn, err := net.Listen("tcp", *nowAddr)
		if err != nil {
			return err
		}
		s.ServeWorkers(nowLn)
		listeners = append(listeners, nowLn)
		fmt.Fprintf(stdout, "NoW worker port on %s\n", nowLn.Addr())
	}
	// A SIGKILL instead of a drain loses nothing the journal already
	// flushed; the service's restart check kills it mid-campaign.
	if err := drain(ctx, s, nil, *bound, stderr, listeners...); err != nil {
		return err
	}
	if *metrics {
		return reg.WriteText(stdout)
	}
	return nil
}

// nowCmd distributes a fault injection campaign over a network of
// workstations (Section III.E of the paper).
//
// Master (runs the golden simulation, holds the checkpoint and queue —
// the campaign service with no local slots, hosting one campaign):
//
//	gemfi now master -addr :7070 -workload pi -scale small -n 500
//
// Worker (one per workstation; -slots experiments run simultaneously;
// the model, watchdog, fork server and observers come from the master):
//
//	gemfi now worker -addr master-host:7070 -slots 4
//
// prepare, filework and collect run a campaign through a shared
// directory instead, the paper's original NFS-based mechanism.
func nowCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	return dispatch(ctx, map[string]command{
		"master":   nowMaster,
		"worker":   nowWorker,
		"prepare":  nowPrepare,
		"filework": nowFileWork,
		"collect":  nowCollect,
	}, args, stdout, stderr)
}

// nowPrepare populates a shared-filesystem campaign directory: the
// checkpoint and one Listing-1 fault file per experiment.
func nowPrepare(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("prepare", stderr)
	dir := fs.String("share", "", "shared directory (required)")
	spec := specFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("prepare needs -share")
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	scale, err := workloads.ParseScale(spec.Scale)
	if err != nil {
		return err
	}
	modelKind, err := sim.ParseModel(spec.Model)
	if err != nil {
		return err
	}
	return untilDone(ctx, func() error {
		window, err := now.PrepareShare(*dir, now.ShareConfig{Workload: spec.Workload, Scale: scale, Model: modelKind})
		if err != nil {
			return err
		}
		exps := campaign.GenerateUniform(spec.N, campaign.GenConfig{WindowInsts: window, Seed: spec.Seed})
		if err := now.WriteExperiments(*dir, exps); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "share %s prepared: %d experiments of %s\n", *dir, len(exps), spec.Workload)
		return nil
	})
}

// nowFileWork drains experiments from a prepared share.
func nowFileWork(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("filework", stderr)
	dir := fs.String("share", "", "shared directory (required)")
	requeue := fs.Bool("requeue", false, "requeue stale claims before working")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("filework needs -share")
	}
	return untilDone(ctx, func() error {
		if *requeue {
			n, err := now.RequeueStaleClaims(*dir)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "requeued %d stale claims\n", n)
		}
		n, err := now.FileWorker(*dir)
		fmt.Fprintf(stdout, "worker completed %d experiments\n", n)
		return err
	})
}

// nowCollect summarizes the results on a share.
func nowCollect(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("collect", stderr)
	dir := fs.String("share", "", "shared directory (required)")
	n := fs.Int("n", 0, "expected result count (0 = whatever is present)")
	waitSec := fs.Int("wait", 0, "seconds to wait for results")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("collect needs -share")
	}
	return untilDone(ctx, func() error {
		results, err := now.CollectResults(*dir, *n, time.Duration(*waitSec)*time.Second)
		if err != nil && len(results) == 0 {
			return err
		}
		tally := campaign.TallyOf(results)
		writeTally(stdout, fmt.Sprintf("campaign results: %d experiments", tally.Total()), tally)
		return nil
	})
}

// nowMaster is the campaign service with no local slots hosting one
// campaign: it runs the golden pass, then serves the checkpoint and the
// experiment queue to workers and journals their results on a temporary
// journal — gemfi campaign's host with the local slots swapped for a
// worker listener. For a durable, multi-campaign master run gemfi serve
// -now and submit with gemfi campaign -server.
func nowMaster(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("master", stderr)
	spec := specFlags(fs)
	var (
		addr     = fs.String("addr", "127.0.0.1:7070", "listen address")
		metrics  = fs.Bool("metrics", false, "print master telemetry (serv.*) at exit")
		httpAddr = fs.String("http", "", "serve the campaign API and observability endpoints (/campaigns /metrics /status /traces) on this address")
		bound    = fs.Duration("drain", 30*time.Second, "in-flight drain bound on SIGINT/SIGTERM")

		spanSample = fs.Int("span-sample", 1, "keep 1 in N experiment traces (crashed/SDC traces are always kept)")
		spansJSONL = fs.String("spans-jsonl", "", "trace every experiment end to end (worker-side spans stitch under the master's experiment span) and write the span trees to this JSONL file")
	)
	fs.BoolVar(&spec.Fork, "fork", false, "fork-server mode, on every worker (via the welcome message): each slot runs one local trunk and forks experiments from COW snapshots instead of replaying the shipped checkpoint")
	fs.BoolVar(&spec.Taint, "taint", false, "track fault propagation on every worker (via the welcome message); verdict summaries ride back on each result")
	fs.BoolVar(&spec.Flight, "flight", false, "ask workers (via the welcome message) to flight-record: crashed/SDC results arrive with post-mortem dumps attached")
	if err := parse(fs, args); err != nil {
		return err
	}
	return hostCampaign(ctx, spec, hostOptions{
		slots: -1, workerAddr: *addr, httpAddr: *httpAddr, drain: *bound, metrics: *metrics,
		spanSample: *spanSample, spansJSONL: *spansJSONL,
	}, stdout, stderr)
}

// nowWorker runs one workstation. Its flags are deployment settings
// only: the master's welcome carries every setting that can change a
// result.
func nowWorker(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("worker", stderr)
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
	if err := parse(fs, args); err != nil {
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
	// The master requeues whatever an abandoned worker had in flight.
	return untilDone(ctx, func() error {
		n, err := w.Run()
		fmt.Fprintf(stdout, "worker: completed %d experiments\n", n)
		if reg != nil {
			if werr := reg.WriteText(stdout); werr != nil && err == nil {
				err = werr
			}
		}
		return err
	})
}
