// Command benchmark is the repository's performance benchmark: four
// workloads that drive the simulator, the campaign layer and the campaign
// service through their public functions, verify what they compute, and
// report five end-to-end metrics each, or, in a traced run, where the
// time went layer by layer. README.md defines every name.
//
//	go run ./benchmark                       all four workloads, one process each
//	go run ./benchmark -trace 1              the per-layer ledger
//	go run ./benchmark -aa                   two sets of runs of the same code; fails if they disagree
//	go run ./benchmark -workload sim-atomic  one workload; the last line is its JSON result
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef fixes a metric's name, unit and direction; BENCHMARK.json
// repeats them and the tests check that the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: tolerated worsening, as a share
	Moves  string  // per-layer only: the end-to-end metric it should move
}

// The bounds are what the 2-core reference box can resolve, not what one
// would wish for: it has slow spells of half a minute and more in which
// everything runs 15% slower, so ten runs of campaign-fork spread (q3-q1
// over the median) 13% on exps_per_sec, and a bound has to sit well above
// the spread to mean anything. README.md has the measurements.
var endToEnd = []metricDef{
	{Name: "guest_mips", Unit: "Minst/s", Better: "higher", Bound: 0.25},
	{Name: "exps_per_sec", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "first_result_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
}

var perLayer = []metricDef{
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "nothing: timed reps with the tracer on against the same reps with it paused"},
	{Name: "minic.compile_ms", Unit: "ms", Better: "lower", Moves: "setup_s, first_result_ms on sim-*"},
	{Name: "sim.load_ms", Unit: "ms", Better: "lower", Moves: "setup_s, first_result_ms on sim-*"},
	{Name: "bbt.mips.dct", Unit: "Minst/s", Better: "higher", Moves: "guest_mips on sim-atomic"},
	{Name: "bbt.mips.pi", Unit: "Minst/s", Better: "higher", Moves: "guest_mips on sim-atomic"},
	{Name: "bbt.mips.knapsack", Unit: "Minst/s", Better: "higher", Moves: "guest_mips on sim-atomic"},
	{Name: "bbt.mips.canneal", Unit: "Minst/s", Better: "higher", Moves: "guest_mips on sim-atomic"},
	{Name: "bbt.mips.jacobi", Unit: "Minst/s", Better: "higher", Moves: "no timed workload: the guest translation helps least"},
	{Name: "bbt.mips.deblock", Unit: "Minst/s", Better: "higher", Moves: "no timed workload: the guest translation helps most"},
	{Name: "cpu.atomic_interp_mips", Unit: "Minst/s", Better: "higher", Moves: "guest_mips on sim-atomic; none on sim-detailed"},
	{Name: "bbt.speedup_x", Unit: "x", Better: "higher", Moves: "guest_mips on sim-atomic; none on sim-detailed"},
	{Name: "cpu.coldpath_mips", Unit: "Minst/s", Better: "higher", Moves: "guest_mips on sim-atomic and sim-detailed"},
	{Name: "cpu.fastpath_speedup_x", Unit: "x", Better: "higher", Moves: "guest_mips on sim-atomic and sim-detailed"},
	{Name: "core.fi_overhead_pct", Unit: "%", Better: "lower", Moves: "guest_mips on both sim workloads"},
	{Name: "cpu.timing_mips", Unit: "Minst/s", Better: "higher", Moves: "guest_mips on sim-detailed; exps_per_sec on campaign-fork"},
	{Name: "cpu.pipelined_mips", Unit: "Minst/s", Better: "higher", Moves: "guest_mips on sim-detailed; exps_per_sec on campaign-fork"},
	{Name: "mem.hierarchy_ns_per_inst", Unit: "ns/inst", Better: "lower", Moves: "guest_mips on sim-detailed"},
	{Name: "cpu.pipeline_ns_per_inst", Unit: "ns/inst", Better: "lower", Moves: "guest_mips on sim-detailed; exps_per_sec on campaign-fork"},
	{Name: "sim.ipc_pipelined", Unit: "inst/tick", Better: "higher", Moves: "nothing: identical unless the model changed"},
	{Name: "obs.flight_overhead_pct", Unit: "%", Better: "lower", Moves: "no timed workload attaches it: baseline for the observer seam"},
	{Name: "prof.overhead_pct", Unit: "%", Better: "lower", Moves: "no timed workload attaches it: baseline for the observer seam"},
	{Name: "taint.overhead_pct", Unit: "%", Better: "lower", Moves: "no timed workload attaches it: baseline for the observer seam"},
	{Name: "campaign.golden_ms", Unit: "ms", Better: "lower", Moves: "setup_s on campaign-fork; first_result_ms on serve-campaign"},
	{Name: "campaign.trunk_ms", Unit: "ms", Better: "lower", Moves: "setup_s on campaign-fork; first_result_ms on serve-campaign"},
	{Name: "campaign.exp_p50_ms", Unit: "ms", Better: "lower", Moves: "exps_per_sec on campaign-fork and serve-campaign"},
	{Name: "campaign.exp_p99_ms", Unit: "ms", Better: "lower", Moves: "exps_per_sec on campaign-fork and serve-campaign"},
	{Name: "campaign.hang_share", Unit: "ratio", Better: "lower", Moves: "exps_per_sec on serve-campaign"},
	{Name: "campaign.pruned_frac", Unit: "ratio", Better: "higher", Moves: "exps_per_sec, peak_rss_mb on campaign-fork"},
	{Name: "checkpoint.snapshot_bytes", Unit: "B", Better: "lower", Moves: "exps_per_sec, peak_rss_mb on campaign-fork"},
	{Name: "campaign.pool_idle_pct", Unit: "%", Better: "lower", Moves: "exps_per_sec on campaign-fork"},
	{Name: "campaign.phase.fork_share", Unit: "ratio", Better: "lower", Moves: "exps_per_sec on campaign-fork"},
	{Name: "campaign.phase.pre-window_share", Unit: "ratio", Better: "lower", Moves: "exps_per_sec on campaign-fork"},
	{Name: "campaign.phase.fi-window_share", Unit: "ratio", Better: "lower", Moves: "exps_per_sec on campaign-fork"},
	{Name: "campaign.phase.post-window_share", Unit: "ratio", Better: "lower", Moves: "exps_per_sec on campaign-fork"},
	{Name: "campaign.phase.classify_share", Unit: "ratio", Better: "lower", Moves: "exps_per_sec on campaign-fork"},
	{Name: "checkpoint.forkpoint_capture_us", Unit: "us", Better: "lower", Moves: "exps_per_sec, setup_s on campaign-fork"},
	{Name: "checkpoint.fork_from_us", Unit: "us", Better: "lower", Moves: "exps_per_sec, setup_s on campaign-fork"},
	{Name: "checkpoint.state_capture_ms", Unit: "ms", Better: "lower", Moves: "exps_per_sec, setup_s on campaign-fork"},
	{Name: "checkpoint.state_restore_ms", Unit: "ms", Better: "lower", Moves: "exps_per_sec, setup_s on campaign-fork"},
	{Name: "campaign.replay_exps_per_sec", Unit: "1/s", Better: "higher", Moves: "no timed workload: baseline for one way to run an experiment"},
	{Name: "serv.submit_ms", Unit: "ms", Better: "lower", Moves: "first_result_ms on serve-campaign"},
	{Name: "serv.prepare_ms", Unit: "ms", Better: "lower", Moves: "first_result_ms on serve-campaign"},
	{Name: "serv.steady_exps_per_sec", Unit: "1/s", Better: "higher", Moves: "exps_per_sec on serve-campaign; none on campaign-fork"},
	{Name: "serv.per_exp_overhead_us", Unit: "us", Better: "lower", Moves: "exps_per_sec on serve-campaign; none on campaign-fork"},
	{Name: "serv.journal_bytes_per_result", Unit: "B/result", Better: "lower", Moves: "setup_s on serve-campaign"},
	{Name: "serv.reopen_ms_per_10k", Unit: "ms/10k", Better: "lower", Moves: "setup_s on serve-campaign"},
	{Name: "serv.shutdown_ms", Unit: "ms", Better: "lower", Moves: "setup_s on serve-campaign"},
	{Name: "obs.span_overhead_pct", Unit: "%", Better: "lower", Moves: "exps_per_sec on serve-campaign"},
}

// workloadDef names a workload and says why it is in the benchmark.
type workloadDef struct {
	Name string
	Why  string
	run  func(*env) error
}

var workloadDefs = []workloadDef{
	{"sim-atomic", "translated atomic runs of four guests: decode caches, block translation and the atomic fast path do the work, the caches and the pipeline none", (*env).runSimAtomic},
	{"sim-detailed", "the same guests on the timing and pipelined models: the interpreter, the cache hierarchy and the pipeline do the work, block translation none", (*env).runSimDetailed},
	{"campaign-fork", "fresh fork-server campaigns on pi, which shares most work with the trunk, and canneal, which shares little: snapshots, COW, pruning, memo and classify", (*env).runCampaignFork},
	{"serve-campaign", "one client pushes 1500-experiment campaigns through the service: thousands of sub-millisecond experiments, each journaled, encoded and streamed", (*env).runServeCampaign},
}

// runWorkload runs one workload in this process and returns its report.
func runWorkload(def workloadDef, seed int64, sz sizes, traced bool, exp *expectations, outDir string) (*report, error) {
	runtime.GOMAXPROCS(2)
	start := time.Now()
	e := newEnv(def.Name, seed, sz, traced, exp, outDir)
	var err error
	total := e.tr.timed(def.Name, func() { err = def.run(e) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	if !traced {
		e.set("peak_rss_mb", exact(peakRSSMiB(), "MiB"))
		e.rep.WallS = time.Since(start).Seconds()
		return &e.rep, nil
	}

	if len(e.compileSecs) > 0 {
		e.set("minic.compile_ms", statOf(e.compileSecs, "s").scaled(1e3, "ms"))
	}
	if len(e.loadSecs) > 0 {
		e.set("sim.load_ms", statOf(e.loadSecs, "s").scaled(1e3, "ms"))
	}
	path := filepath.Join(outDir, "trace-"+def.Name+".jsonl")
	if err := e.tr.write(path); err != nil {
		return nil, err
	}
	self := selfTimes(e.tr.spans)
	var sum time.Duration
	fmt.Printf("%-32s %12s %7s\n", "span", "self_s", "share")
	for _, name := range sortedNames(self) {
		sum += self[name]
		fmt.Printf("%-32s %12.4f %6.1f%%\n", name, self[name].Seconds(), 100*self[name].Seconds()/total.Seconds())
	}
	e.rep.WallS, e.rep.SelfS = time.Since(start).Seconds(), sum.Seconds()
	fmt.Printf("%d spans in %s; self times sum to %.4f s of %.4f s wall\n", len(e.tr.spans), path, e.rep.SelfS, e.rep.WallS)
	return &e.rep, nil
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultOf selects the metrics the run must report: every end-to-end
// metric, or every per-layer metric. A layer the workload does not
// exercise reads 0.
func resultOf(rep *report) result {
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	res := result{Correct: rep.Failed == 0 && rep.Ops > 0, Attempted: rep.Ops, Failed: rep.Failed, Metrics: make(map[string]resultValue)}
	for _, d := range defs {
		res.Metrics[d.Name] = resultValue{Value: rep.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return res
}

func printReport(rep *report) {
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	fmt.Printf("\n%s  seed %d  ops %d  failed %d  wall %.1f s\n", rep.Workload, rep.Seed, rep.Ops, rep.Failed, rep.WallS)
	fmt.Printf("  %-34s %14s %-9s %14s %14s %5s  %s\n", "metric", "value", "unit", "q1", "q3", "n", "should move")
	for _, d := range defs {
		s, ok := rep.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-34s %14.4f %-9s %14.4f %14.4f %5d  %s\n", d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N, d.Moves)
	}
}

// fingerprint identifies the host and the code a result belongs to.
type fingerprint struct {
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func readFingerprint() fingerprint {
	fp := fingerprint{NProc: runtime.NumCPU(), CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if data, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				ref = strings.TrimSpace(string(data))
			}
		}
		if len(ref) >= 12 && !strings.Contains(ref, " ") {
			fp.Commit = ref[:12]
		}
	}
	return fp
}

const detailPrefix = "#report "

// child runs one workload in a fresh process of this binary, with this
// process's own flags, and returns the report it printed.
func child(workload string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Of a repeated flag the last one counts.
	args := append(append([]string(nil), os.Args[1:]...), "-workload", workload, "-aa=false")
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var rep *report
	for _, line := range strings.Split(out.String(), "\n") {
		if data, ok := strings.CutPrefix(line, detailPrefix); ok {
			rep = new(report)
			if err := json.Unmarshal([]byte(data), rep); err != nil {
				return nil, err
			}
		}
	}
	if runErr != nil || rep == nil {
		os.Stdout.Write(out.Bytes())
		return nil, fmt.Errorf("%s: child failed: %v", workload, runErr)
	}
	return rep, nil
}

// aaRuns is how many runs of every workload each side of the self-check
// makes. One run a side is not enough on a shared box: a slow spell of
// the host moves a single run by 20% and more.
const aaRuns = 3

// selfCheck runs every workload 2*aaRuns times, alternating the order of
// the workloads from pass to pass, gives the odd passes to one side and
// the even ones to the other, and compares the two sides' medians of
// every metric with its bound.
func selfCheck() error {
	sides := [2]map[string][]*report{{}, {}}
	failed := 0
	for p := 0; p < 2*aaRuns; p++ {
		for i := range workloadDefs {
			def := workloadDefs[i]
			if p%2 == 1 {
				def = workloadDefs[len(workloadDefs)-1-i]
			}
			rep, err := child(def.Name)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "pass %d of %d: %s done in %.1f s\n", p+1, 2*aaRuns, def.Name, rep.WallS)
			sides[p%2][def.Name] = append(sides[p%2][def.Name], rep)
			failed += rep.Failed
		}
	}
	var over []string
	if failed > 0 {
		over = append(over, fmt.Sprintf("%d operations failed", failed))
	}
	side := func(reps []*report, metric string) stat {
		var xs []float64
		for _, rep := range reps {
			xs = append(xs, rep.Metrics[metric].Value)
		}
		return statOf(xs, "")
	}
	fmt.Printf("| workload | metric | unit | first median (q1..q3, n) | second median (q1..q3, n) | difference | bound |\n|---|---|---|---|---|---|---|\n")
	for _, def := range workloadDefs {
		for _, m := range endToEnd {
			x, y := side(sides[0][def.Name], m.Name), side(sides[1][def.Name], m.Name)
			diff := pct(y.Value, x.Value) / 100
			fmt.Printf("| %s | %s | %s | %.4g (%.4g..%.4g, %d) | %.4g (%.4g..%.4g, %d) | %+.1f%% | %.0f%% |\n",
				def.Name, m.Name, m.Unit, x.Value, x.Q1, x.Q3, x.N, y.Value, y.Q1, y.Q3, y.N, diff*100, m.Bound*100)
			if diff > m.Bound || diff < -m.Bound {
				over = append(over, fmt.Sprintf("%s/%s differs by %+.1f%%, bound %.0f%%", def.Name, m.Name, diff*100, m.Bound*100))
			}
		}
	}
	if len(over) > 0 {
		return errors.New("two sets of runs of the same code disagree:\n  " + strings.Join(over, "\n  "))
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run in this process, or all: each in a process of its own")
		seed     = flag.Int64("seed", 7, "orders the work: cell order per round, submission order of the fault corpus")
		secs     = flag.Int("seconds", nominalSeconds, "nominal measuring time; scales the fixed rep counts, never below their floors")
		trace    = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		quick    = flag.Bool("quick", false, "cut-down sizes at test scale (the smoke configuration of go test)")
		aa       = flag.Bool("aa", false, "self-check: run every workload six times, alternate passes to two sides, and fail if the sides' medians differ by more than a bound")
		update   = flag.Bool("update-expected", false, "rewrite "+expectedPath+" from this run instead of checking against it")
		outDir   = flag.String("out", "benchmark/out", "directory for span files and the service's journal")
	)
	flag.Parse()
	fp, _ := json.Marshal(readFingerprint())
	fmt.Printf("fingerprint %s\n", fp)
	var err error
	switch {
	case *secs < 1:
		err = errors.New("-seconds must be positive")
	case *aa:
		err = selfCheck()
	case *workload == "all":
		err = runAll()
	default:
		sz := fullSizes(*secs)
		if *quick {
			sz = quickSizes()
		}
		err = runOne(*workload, *seed, sz, *trace != 0, *update, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in a process of its own.
func runAll() error {
	failed := 0
	for _, def := range workloadDefs {
		rep, err := child(def.Name)
		if err != nil {
			return err
		}
		printReport(rep)
		failed += rep.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runOne runs one workload in this process; the last line it prints is
// the workload's result.
func runOne(workload string, seed int64, sz sizes, traced, update bool, outDir string) error {
	for _, def := range workloadDefs {
		if def.Name != workload {
			continue
		}
		exp, err := loadExpectations(update)
		if err != nil {
			return err
		}
		rep, err := runWorkload(def, seed, sz, traced, exp, outDir)
		if err != nil {
			return err
		}
		if update {
			if err := exp.save(); err != nil {
				return err
			}
		}
		printReport(rep)
		detail, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Printf("%s%s\n", detailPrefix, detail)
		last, err := json.Marshal(resultOf(rep))
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", last)
		return nil
	}
	return fmt.Errorf("unknown workload %q", workload)
}
