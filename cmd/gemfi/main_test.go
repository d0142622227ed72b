package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// gemfi runs one command line in-process and returns its stdout.
func gemfi(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := dispatch(context.Background(), commands, args, &stdout, &stderr)
	return stdout.String(), err
}

// mustGemfi is gemfi for a command line that must succeed.
func mustGemfi(t *testing.T, args ...string) string {
	t.Helper()
	out, err := gemfi(t, args...)
	if err != nil {
		t.Fatalf("gemfi %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return out
}

// syncBuffer is an output a subcommand running on another goroutine
// writes while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// await polls b until re matches and returns the first submatch.
func await(t *testing.T, b *syncBuffer, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := rx.FindStringSubmatch(b.String()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("no %q in output:\n%s", re, b.String())
	return ""
}

// background runs a command line on its own goroutine with a cancellable
// context; the returned channel yields its error.
func background(ctx context.Context, args []string, stdout, stderr *syncBuffer) <-chan error {
	done := make(chan error, 1)
	go func() { done <- dispatch(ctx, commands, args, stdout, stderr) }()
	return done
}

// writeTemp writes content to name in a fresh test directory.
func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tallyLines keeps a report's per-outcome lines, the ones executors must
// agree on.
func tallyLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func TestCommandLineErrors(t *testing.T) {
	dir := t.TempDir()
	pcFault := writeTemp(t, "pc-fault.txt", "PCInjectedFault Inst:2000 Flip:30 Threadid:0 occ:1\n")
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		want   string // in the error
	}{
		{"no subcommand", nil, 1, "missing subcommand"},
		{"unknown subcommand", []string{"simulate"}, 1, `unknown subcommand "simulate"`},
		{"unknown now subcommand", []string{"now", "boss"}, 1, `unknown subcommand "boss"`},
		{"help", []string{"run", "-h"}, 0, "help requested"},
		{"unknown flag", []string{"campaign", "-bbt=false"}, 1, "not defined: -bbt"},
		{"run stray arguments", []string{"run", "-workload", "pi", "extra", "junk"}, 1, `unexpected arguments ["extra" "junk"]`},
		{"campaign stray argument", []string{"campaign", "-workload", "pi", "-n", "2", "junk"}, 1, "unexpected arguments"},
		{"serve stray argument", []string{"serve", "junk"}, 1, "unexpected arguments"},
		{"master stray argument", []string{"now", "master", "junk"}, 1, "unexpected arguments"},
		{"worker stray argument", []string{"now", "worker", "junk"}, 1, "unexpected arguments"},
		{"prepare stray argument", []string{"now", "prepare", "-share", dir, "junk"}, 1, "unexpected arguments"},
		{"filework stray argument", []string{"now", "filework", "-share", dir, "junk"}, 1, "unexpected arguments"},
		{"collect stray argument", []string{"now", "collect", "-share", dir, "junk"}, 1, "unexpected arguments"},
		{"prepare without share", []string{"now", "prepare"}, 1, "needs -share"},
		{"filework without share", []string{"now", "filework"}, 1, "needs -share"},
		{"collect without share", []string{"now", "collect"}, 1, "needs -share"},
		{"list without file", []string{"list"}, 1, "usage: gemfi list"},
		{"validate unknown kind", []string{"validate", "trace", "f.json"}, 1, "usage: gemfi validate"},
		{"validate missing file", []string{"validate", "spans", filepath.Join(dir, "absent")}, 1, "no such file"},
		{"run unknown model", []string{"run", "-workload", "pi", "-model", "pipelind"}, 1, "pipelind"},
		{"campaign unknown model", []string{"campaign", "-model", "pipelind", "-n", "2"}, 1, "pipelind"},
		{"run unknown scale", []string{"run", "-workload", "pi", "-scale", "huge"}, 1, `unknown scale "huge"`},
		{"campaign unknown scale", []string{"campaign", "-scale", "huge", "-n", "2"}, 1, `unknown scale "huge"`},
		{"unknown workload", []string{"campaign", "-workload", "linpack", "-n", "2"}, 1, `unknown workload "linpack"`},
		{"unknown experiment", []string{"campaign", "-experiment", "fig9", "-n", "2"}, 1, `unknown experiment "fig9"`},
		{"negative budget", []string{"campaign", "-experiment", "custom", "-n", "-3"}, 1, "positive experiment budget"},
		{"zero budget", []string{"campaign", "-experiment", "custom", "-n", "0"}, 1, "positive experiment budget"},
		{"zero budget submitted", []string{"campaign", "-server", "http://127.0.0.1:1", "-submit", "-n", "0"}, 1, "positive experiment budget"},
		{"client without action", []string{"campaign", "-server", "http://127.0.0.1:1"}, 1, "needs one of -submit"},
		{"run without program", []string{"run"}, 1, "need -prog or -workload"},
		{"checkpoint save with spans", []string{"run", "-workload", "pi", "-save-checkpoint", filepath.Join(dir, "ckpt.bin"),
			"-spans-jsonl", filepath.Join(dir, "spans.jsonl")}, 1, "-save-checkpoint cannot be combined"},
		{"crashed run", []string{"run", "-workload", "pi", "-faults", pcFault}, 2, "guest run failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := gemfi(t, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if got := exitStatus(err); got != tc.status {
				t.Fatalf("exit status %d, want %d", got, tc.status)
			}
		})
	}
	if exitStatus(nil) != 0 || exitStatus(flag.ErrHelp) != 0 || exitStatus(errors.New("x")) != 1 {
		t.Fatal("exitStatus maps nil, -h or a plain error wrongly")
	}
}

// TestRunAndCheckpoint covers a clean run with every single-run output,
// and the checkpoint round trip.
func TestRunAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.bin")
	out := mustGemfi(t, "run", "-workload", "pi", "-save-checkpoint", ckpt)
	if !strings.Contains(out, "checkpoint saved to "+ckpt) {
		t.Fatalf("no save report:\n%s", out)
	}
	out = mustGemfi(t, "run", "-workload", "pi", "-restore", ckpt, "-v", "-bbt-stats", "-trace-insts", "3",
		"-profile", "-profile-top", "3", "-profile-json", filepath.Join(dir, "prof.json"),
		"-profile-folded", filepath.Join(dir, "prof.folded"), "-metrics-json", filepath.Join(dir, "metrics.json"),
		"-flight", "-taint", "-http", "127.0.0.1:0")
	for _, want := range []string{"exit status 0", "bbt: ", "instructions: ", "flight recorder: run completed normally"} {
		if !strings.Contains(out, want) {
			t.Errorf("no %q in run output:\n%s", want, out)
		}
	}
	for _, f := range []string{"prof.json", "prof.folded", "metrics.json"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s: not written (%v)", f, err)
		}
	}
}

// TestRunStopsOnCancel checks that a cancelled context interrupts a
// simulation.
func TestRunStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	err := dispatch(ctx, commands, []string{"run", "-workload", "pi"}, &stdout, &stderr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

func TestList(t *testing.T) {
	asmFile := writeTemp(t, "prog.s", "_start:\n    li a0, 0\n    callsys\n")
	mcFile := writeTemp(t, "prog.mc", "int main() { return 0; }\n")
	for _, path := range []string{asmFile, mcFile} {
		out := mustGemfi(t, "list", path)
		if !strings.HasPrefix(out, "; text 0x") || !strings.Contains(out, "; symbols:") {
			t.Errorf("%s: listing lacks its header or symbol table:\n%s", path, out)
		}
		if out := mustGemfi(t, "list", "-q", path); out != "" {
			t.Errorf("%s: -q printed %q", path, out)
		}
	}
	if !strings.Contains(mustGemfi(t, "list", asmFile), "_start:") {
		t.Error("assembly listing lacks the _start label")
	}
	bad := writeTemp(t, "bad.mc", "int main( {")
	if _, err := gemfi(t, "list", bad); err == nil {
		t.Error("a program that does not compile listed")
	}
}

// TestFigures runs the fixed-table and figure experiments at their
// smallest sizes.
func TestFigures(t *testing.T) {
	if out := mustGemfi(t, "campaign", "-experiment", "table1"); !strings.Contains(out, "Table I") {
		t.Errorf("table1:\n%s", out)
	}
	js := filepath.Join(t.TempDir(), "fig6.json")
	out := mustGemfi(t, "campaign", "-experiment", "fig6", "-workload", "pi", "-n", "8", "-bins", "2",
		"-parallel", "2", "-json", js, "-metrics")
	if !strings.Contains(out, "pi") {
		t.Errorf("fig6:\n%s", out)
	}
	var rep map[string]any
	if b, err := os.ReadFile(js); err != nil || json.Unmarshal(b, &rep) != nil {
		t.Errorf("fig6 -json: %v", err)
	}
}
