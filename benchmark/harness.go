package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/workloads"
)

// corpusSeed draws the fault corpus of the campaign workloads. It is part
// of the workload definition, like the guest programs: experiment cost is
// heavy-tailed (on pi, 250 uniform faults take 1.7 s to 4.4 s depending
// on the draw), so a corpus redrawn from --seed would make every campaign
// number a property of the seed. --seed orders the work instead.
const corpusSeed = 7

// watchdogX is the campaign hang watchdog in multiples of the golden
// run's instruction count.
const watchdogX = 2

// sizes fixes how much work a run does. It never depends on the clock.
type sizes struct {
	scale workloads.Scale

	simGuests    []string
	timingGuests []string // sim-detailed: the guests that also run on the timing model
	setupPasses  int      // sim-*: set-up passes behind setup_s
	atomicReps   int
	detailedReps int

	forkReps int
	forkN    map[string]int // experiments per guest
	forkWarm int            // experiments in the untimed warm-up campaign, on pi

	serveSubs    int
	serveN       int
	serveReopens int

	// Traced runs: timed reps (half of them with the tracer paused) and
	// reps per probe cell.
	tracedReps int
	probeReps  int
	slowReps   int // probe reps of jacobi, which runs 7 s per rep
	replayN    int
}

// scaleName is the scale's name in expected.json and in a campaign spec.
func (sz sizes) scaleName() string {
	if sz.scale == workloads.ScaleTest {
		return "test"
	}
	return "small"
}

// nominalSeconds is the --seconds value the rep counts below are sized
// for on the 2-core reference box; other values scale the rep counts,
// never below the floors.
const nominalSeconds = 30

func fullSizes(seconds int) sizes {
	scaleReps := func(base, floor int) int {
		n := (base*seconds + nominalSeconds/2) / nominalSeconds
		if n < floor {
			n = floor
		}
		return n
	}
	return sizes{
		scale:        workloads.ScaleSmall,
		simGuests:    simGuests,
		timingGuests: []string{"canneal"},
		setupPasses:  3,
		atomicReps:   scaleReps(8, 5),
		detailedReps: scaleReps(5, 5),
		forkReps:     scaleReps(5, 5),
		forkN:        map[string]int{"pi": 125, "canneal": 20},
		forkWarm:     20,
		serveSubs:    scaleReps(9, 9),
		serveN:       1500,
		serveReopens: 9,
		tracedReps:   4,
		probeReps:    3,
		slowReps:     1,
		replayN:      40,
	}
}

// quickSizes is the cut-down smoke configuration of `go test`.
func quickSizes() sizes {
	return sizes{
		scale:        workloads.ScaleTest,
		simGuests:    []string{"pi", "canneal"},
		timingGuests: []string{"pi"},
		setupPasses:  1,
		atomicReps:   2,
		detailedReps: 1,
		forkReps:     1,
		forkN:        map[string]int{"pi": 16, "canneal": 6},
		forkWarm:     2,
		serveSubs:    2,
		serveN:       40,
		serveReopens: 2,
		tracedReps:   2,
		probeReps:    1,
		slowReps:     1,
		replayN:      6,
	}
}

// report is what one workload run produces.
type report struct {
	Workload string          `json:"workload"`
	Traced   bool            `json:"traced"`
	Seed     int64           `json:"seed"`
	Ops      int             `json:"ops"`
	Failed   int             `json:"failed"`
	Failures []string        `json:"failures,omitempty"`
	Metrics  map[string]stat `json:"metrics"`
	WallS    float64         `json:"wall_s"`
	SelfS    float64         `json:"self_s,omitempty"` // traced: sum of all spans' self times
}

// env is the state of one workload run.
type env struct {
	seed   int64
	sz     sizes
	tr     *tracer // nil in an untraced run
	exp    *expectations
	rep    report
	outDir string

	// Seconds of every uncached Workload.Build and of every sim.New +
	// Load the harness made.
	compileSecs, loadSecs []float64
}

func newEnv(workload string, seed int64, sz sizes, traced bool, exp *expectations, outDir string) *env {
	e := &env{seed: seed, sz: sz, exp: exp, outDir: outDir}
	if traced {
		e.tr = newTracer(workload)
	}
	e.rep = report{Workload: workload, Traced: traced, Seed: seed, Metrics: make(map[string]stat)}
	return e
}

// op counts one attempted operation; a non-empty problem marks it failed.
func (e *env) op(problem string) {
	failed := 0
	if problem != "" {
		failed = 1
	}
	e.ops(1, failed, problem)
}

func (e *env) ops(attempted, failed int, problem string) {
	e.rep.Ops += attempted
	e.rep.Failed += failed
	if problem != "" {
		e.rep.Failures = append(e.rep.Failures, problem)
		fmt.Printf("FAILED %s\n", problem)
	}
}

func (e *env) set(name string, s stat) { e.rep.Metrics[name] = s }

// gcBeforeTiming is called before every timed region so that a region
// never pays for garbage an earlier one made.
func gcBeforeTiming() { runtime.GC() }

// peakRSSMiB reads the process's high-water resident set size.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// pct is the relative difference of a to b in percent.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b * 100
}
