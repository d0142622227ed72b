// Command gemfi-serve runs the durable campaign service: a long-running
// server that accepts fault-injection campaign specs over HTTP, executes
// them on a local runner pool (and, with -now, on network-of-workstation
// workers), journals every state transition so a crash or restart
// resumes mid-campaign with exactly-once accounting, and streams
// progress to any number of watchers.
//
//	gemfi-serve -addr :8080 -dir /var/lib/gemfi -slots 8 -now :7070
//
// Submit and watch with gemfi-campaign -server, or raw curl:
//
//	curl -X POST localhost:8080/campaigns -d '{"workload":"pi","n":500}'
//	curl localhost:8080/campaigns/c0001/stream
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gemfi-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (campaign API + observability)")
		dir     = flag.String("dir", "gemfi-serve.d", "journal directory (campaigns survive restarts here)")
		slots   = flag.Int("slots", 4, "concurrent local experiment executions across all campaigns (negative: none, NoW workers run every experiment)")
		nowAddr = flag.String("now", "", "also serve NoW workers (gemfi-now worker -addr) on this address")
		drain   = flag.Duration("drain", 30*time.Second, "in-flight drain bound on SIGINT/SIGTERM")
		metrics = flag.Bool("metrics", false, "print the service metrics registry at exit")

		spansOff   = flag.Bool("no-spans", false, "disable distributed span tracing (/trace and /traces endpoints)")
		spanSample = flag.Int("span-sample", 1, "keep 1 in N experiment traces (head sampling; crashed/SDC traces are always kept)")
		spanRing   = flag.Int("span-ring", 0, "recent-trace ring capacity (0 = default)")

		flightOn = flag.Bool("flight", false, "flight recorder on every campaign: crashed/SDC experiments carry post-mortem dumps, journaled and served at /postmortem/{id}")
	)
	flag.Parse()

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
	s, err := serv.New(serv.Config{Dir: *dir, Slots: *slots, Metrics: reg, Spans: spans, Flight: *flightOn})
	if err != nil {
		return err
	}
	srv, ln, err := s.Serve(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("campaign service on http://%s (journal %s, %d slots)\n", ln.Addr(), *dir, *slots)

	var nowLn net.Listener
	if *nowAddr != "" {
		nowLn, err = net.Listen("tcp", *nowAddr)
		if err != nil {
			return err
		}
		s.ServeWorkers(nowLn)
		fmt.Printf("NoW worker port on %s\n", nowLn.Addr())
	}

	// Graceful shutdown: drain in-flight experiments within the bound,
	// fsync the journal, then exit. A SIGKILL instead loses nothing the
	// journal already flushed — the restart test in CI proves it.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	fmt.Fprintf(os.Stderr, "gemfi-serve: %v — draining (bound %s)\n", sig, *drain)
	if nowLn != nil {
		_ = nowLn.Close()
	}
	_ = srv.Close()
	if err := s.Shutdown(*drain); err != nil {
		return err
	}
	if *metrics {
		return reg.WriteText(os.Stdout)
	}
	return nil
}
