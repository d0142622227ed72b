// Command gemfi is GemFI's one entry point: single simulations, fault
// injection campaigns, the durable campaign service, network-of-
// workstation campaigns, program listings and file validation are its
// subcommands.
//
//	gemfi run -workload dct -scale small -faults faults.txt
//	gemfi campaign -experiment fig5 -n 100 -parallel 8
//	gemfi serve -addr :8080 -dir /var/lib/gemfi -slots 8 -now :7070
//	gemfi now master -addr :7070 -workload pi -scale small -n 500
//	gemfi now worker -addr master-host:7070 -slots 4
//	gemfi list prog.mc
//	gemfi validate spans trace.jsonl
//
// `gemfi <subcommand> -h` lists a subcommand's flags. A run whose guest
// crashed or hung exits with status 2; any other error exits with 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/serv"
)

// command is one subcommand. It parses args with its own flag set,
// writes its report to stdout and its diagnostics to stderr, and stops
// promptly once ctx is cancelled.
type command func(ctx context.Context, args []string, stdout, stderr io.Writer) error

var commands = map[string]command{
	"run":      runCmd,
	"campaign": campaignCmd,
	"serve":    serveCmd,
	"now":      nowCmd,
	"list":     listCmd,
	"validate": validateCmd,
}

// errGuestFailed reports a run whose guest crashed or hung; its report
// is already printed, so main only sets the exit status.
var errGuestFailed = errors.New("guest run failed")

func main() {
	// SIGINT and SIGTERM cancel ctx; each subcommand stops on that,
	// draining where it has work in flight on other machines.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := dispatch(ctx, commands, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	status := exitStatus(err)
	if status == 1 {
		fmt.Fprintln(os.Stderr, "gemfi:", err)
	}
	os.Exit(status)
}

// exitStatus maps a subcommand's error to the process exit status.
func exitStatus(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errGuestFailed):
		return 2
	}
	return 1
}

// dispatch runs the subcommand args[0] names from table.
func dispatch(ctx context.Context, table map[string]command, args []string, stdout, stderr io.Writer) error {
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (%s)", strings.Join(names, "|"))
	}
	cmd, ok := table[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q (%s)", args[0], strings.Join(names, "|"))
	}
	return cmd(ctx, args[1:], stdout, stderr)
}

// newFlags returns a subcommand's flag set; parse errors and -h usage
// go to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses the flags of a subcommand that takes no positional
// arguments, and rejects any it is given.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected arguments %q", fs.Name(), fs.Args())
	}
	return nil
}

// specFlags defines the flags that describe a campaign, shared by the
// campaign command, the NoW master and the NoW share preparer; parsing
// fills the returned spec.
func specFlags(fs *flag.FlagSet) *serv.CampaignSpec {
	spec := &serv.CampaignSpec{}
	fs.StringVar(&spec.Workload, "workload", "pi", "workload: dct|jacobi|pi|knapsack|deblock|canneal")
	fs.StringVar(&spec.Scale, "scale", "test", "workload scale: test|small|paper")
	fs.StringVar(&spec.Model, "model", "atomic", "CPU model for experiments: atomic|timing|pipelined")
	fs.IntVar(&spec.N, "n", 100, "experiments (per location for campaign -experiment fig5)")
	fs.Int64Var(&spec.Seed, "seed", 1, "campaign seed")
	return spec
}

// untilDone runs work and returns its error, or ctx's as soon as ctx is
// cancelled. Work without a cancellation point of its own is abandoned
// then, and ends with the process.
func untilDone(ctx context.Context, work func() error) error {
	done := make(chan error, 1)
	go func() { done <- work() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drain serves until ctx is cancelled or, with finished set, until
// finished reports true; then it closes the listeners and shuts s down
// within bound, so results of experiments in flight on other machines
// are journaled rather than dropped.
func drain(ctx context.Context, s *serv.Service, finished func() bool, bound time.Duration, stderr io.Writer, listeners ...io.Closer) error {
	if finished == nil {
		<-ctx.Done()
	} else {
		for ctx.Err() == nil && !finished() {
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintf(stderr, "gemfi: interrupted, draining in-flight experiments (bound %s)\n", bound)
	}
	for _, ln := range listeners {
		_ = ln.Close()
	}
	return s.Shutdown(bound)
}

// writeTally prints header and one line per outcome class: the lines
// the NoW and fork-versus-replay checks compare between executors.
func writeTally(w io.Writer, header string, t campaign.Tally) {
	fmt.Fprintln(w, header)
	for _, o := range campaign.Outcomes() {
		fmt.Fprintf(w, "  %-18s %5d (%5.1f%%)\n", o, t[o], 100*t.Fraction(o))
	}
}

// writeFile creates path and fills it with write; an empty path writes
// nothing.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanFiles writes a span recorder's file outputs. The JSONL file gets
// every kept trace as it completes, so a campaign longer than the
// recorder's ring loses none; the Chrome/Perfetto file gets the ring's
// traces at close.
type spanFiles struct {
	rec    *obs.SpanRecorder
	chrome string

	mu    sync.Mutex // traces complete on whichever worker ends them
	jsonl *os.File
	err   error // first JSONL write error
}

// openSpanFiles creates the JSONL file (if jsonlPath is set) and streams
// rec's traces into it.
func openSpanFiles(rec *obs.SpanRecorder, jsonlPath, chromePath string) (*spanFiles, error) {
	sf := &spanFiles{rec: rec, chrome: chromePath}
	if jsonlPath == "" {
		return sf, nil
	}
	f, err := os.Create(jsonlPath)
	if err != nil {
		return nil, err
	}
	sf.jsonl = f
	rec.StreamJSONL(func(tr obs.Trace) {
		sf.mu.Lock()
		defer sf.mu.Unlock()
		if sf.err == nil {
			sf.err = obs.WriteTraceJSONL(f, tr)
		}
	})
	return sf, nil
}

// close finishes the JSONL file and writes the Chrome/Perfetto file.
func (sf *spanFiles) close(stdout, stderr io.Writer) error {
	if sf.jsonl != nil {
		sf.mu.Lock()
		err := sf.err
		sf.mu.Unlock()
		if cerr := sf.jsonl.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if sf.chrome != "" {
		if err := writeFile(sf.chrome, sf.rec.WriteSpansChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "span trace written to %s (load in chrome://tracing or Perfetto)\n", sf.chrome)
	}
	if n := sf.rec.Dropped(); n > 0 {
		fmt.Fprintf(stderr, "spans: %d spans dropped by sampling/eviction (obs.spans.dropped)\n", n)
	}
	return nil
}
