package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// stop cancels a background subcommand and waits for it to return.
func stop(t *testing.T, cancel context.CancelFunc, done <-chan error) error {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("subcommand did not stop on cancellation")
		return nil
	}
}

// TestServeAndClient submits a campaign to an in-process service, watches
// it finish, resumes it, and drains the service on cancellation.
func TestServeAndClient(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := background(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-dir", t.TempDir(), "-slots", "2",
		"-now", "127.0.0.1:0", "-metrics"}, &stdout, &stderr)
	base := await(t, &stdout, `campaign service on (http://\S+) `)
	await(t, &stdout, `NoW worker port on (\S+)`)

	id := strings.TrimSpace(mustGemfi(t, "campaign", "-server", base, "-submit",
		"-workload", "pi", "-n", "20", "-seed", "11", "-sampling", "adaptive", "-strata", "4", "-batch", "5"))
	if id == "" {
		t.Fatal("submit printed no campaign ID")
	}
	watched := mustGemfi(t, "campaign", "-server", base, "-watch", id)
	if !strings.Contains(watched, "campaign "+id+" done: 20 experiments") {
		t.Fatalf("watch did not see the campaign finish:\n%s", watched)
	}
	resumed := mustGemfi(t, "campaign", "-server", base, "-resume", id)
	if !strings.Contains(resumed, "20 results so far") || tallyLines(resumed) != tallyLines(watched) {
		t.Fatalf("resume disagrees with watch:\n%s\nwatch:\n%s", resumed, watched)
	}
	if _, err := gemfi(t, "campaign", "-server", base, "-watch", "c9999"); err == nil {
		t.Error("watching an unknown campaign succeeded")
	}

	if err := stop(t, cancel, done); err != nil {
		t.Fatalf("serve: %v", err)
	}
	if !strings.Contains(stderr.String(), "draining") || !strings.Contains(stdout.String(), "serv.") {
		t.Errorf("no drain notice or metrics dump:\n%s\n%s", stderr.String(), stdout.String())
	}
}

// TestNowMatchesLocal runs NoW campaigns through an in-process master and
// two workers and diffs their tallies against local campaigns.
func TestNowMatchesLocal(t *testing.T) {
	for _, extra := range [][]string{nil, {"-model", "pipelined", "-fork"}} {
		t.Run(strings.Join(append([]string{"atomic"}, extra...), " "), func(t *testing.T) {
			spec := append([]string{"-workload", "pi", "-n", "30", "-seed", "3"}, extra...)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mout, merr syncBuffer
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			master := background(ctx, append([]string{"now", "master", "-addr", "127.0.0.1:0",
				"-spans-jsonl", spans, "-metrics"}, spec...), &mout, &merr)
			addr := await(t, &mout, `master: serving 30 experiments of pi on (\S+)`)
			var workers []<-chan error
			for _, name := range []string{"wa", "wb"} {
				var wout, werr syncBuffer
				workers = append(workers, background(ctx, []string{"now", "worker", "-addr", addr,
					"-slots", "2", "-name", name, "-metrics"}, &wout, &werr))
			}
			for _, w := range append(workers, master) {
				select {
				case err := <-w:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("NoW campaign did not finish")
				}
			}
			// The master streams each experiment's span tree as it completes.
			mustGemfi(t, "validate", "spans", spans)
			local := mustGemfi(t, append([]string{"campaign", "-experiment", "custom", "-parallel", "2", "-progress=false"}, spec...)...)
			if m, l := tallyLines(mout.String()), tallyLines(local); !strings.Contains(m, l) {
				t.Errorf("NoW tally differs from local\nNoW:\n%s\nlocal:\n%s", m, l)
			}
		})
	}
}

// TestNowMasterStopsOnCancel checks that a master nobody works for
// drains and returns when cancelled.
func TestNowMasterStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := background(ctx, []string{"now", "master", "-addr", "127.0.0.1:0", "-n", "5", "-drain", "1s",
		"-http", "127.0.0.1:0"}, &stdout, &stderr)
	await(t, &stdout, `master: serving 5 experiments of pi on (\S+)`)
	if err := stop(t, cancel, done); err != nil {
		t.Fatalf("master: %v", err)
	}
	if !strings.Contains(stdout.String(), "campaign complete: 0 experiments") {
		t.Errorf("no final report:\n%s", stdout.String())
	}
}

// TestNowShare runs a campaign through a shared directory.
func TestNowShare(t *testing.T) {
	share := t.TempDir()
	if out := mustGemfi(t, "now", "prepare", "-share", share, "-n", "10", "-seed", "3"); !strings.Contains(out, "10 experiments of pi") {
		t.Fatalf("prepare:\n%s", out)
	}
	if out := mustGemfi(t, "now", "filework", "-share", share, "-requeue"); !strings.Contains(out, "worker completed 10 experiments") {
		t.Fatalf("filework:\n%s", out)
	}
	if out := mustGemfi(t, "now", "collect", "-share", share, "-n", "10"); !strings.Contains(out, "campaign results: 10 experiments") {
		t.Fatalf("collect:\n%s", out)
	}
}
