package campaign

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig7Row is the overhead measurement for one application: simulation
// time with GemFI machinery active (fault injection enabled, no faults
// injected) versus the unmodified simulator, with a confidence interval —
// the paper's worst-case-overhead experiment.
type Fig7Row struct {
	Workload    string  `json:"workload"`
	VanillaSec  float64 `json:"vanillaSec"`
	GemFISec    float64 `json:"gemfiSec"`
	OverheadPct float64 `json:"overheadPct"`
	CILowPct    float64 `json:"ciLowPct"`
	CIHighPct   float64 `json:"ciHighPct"`
	Trials      int     `json:"trials"`
}

// Fig7Report reproduces Fig. 7.
type Fig7Report struct {
	Rows []Fig7Row `json:"rows"`
}

// Fig7Config parameterizes the overhead study.
type Fig7Config struct {
	Workloads []*workloads.Workload
	Trials    int
	Model     sim.ModelKind // the paper measures on the O3 (pipelined) model
	// Metrics, when set, records every trial's wall time in
	// campaign.fig7.{vanilla,gemfi}_us histograms.
	Metrics *obs.Registry
}

// RunFig7 measures GemFI's overhead over the vanilla simulator. Per the
// paper: fault injection is activated (fi_activate_inst runs, per-tick
// machinery engaged) but no fault is injected, and the simulation stays
// in the expensive cycle-accurate model throughout.
func RunFig7(cfg Fig7Config) (*Fig7Report, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 5
	}
	if cfg.Model == "" {
		cfg.Model = sim.ModelPipelined
	}
	rep := &Fig7Report{}
	for _, w := range cfg.Workloads {
		p, err := w.Build()
		if err != nil {
			return nil, err
		}
		var vanilla, gemfi stats.Mean
		for trial := 0; trial < cfg.Trials; trial++ {
			// Alternate which side runs first, and collect the garbage
			// before each timed run, so drift and the previous run's
			// heap land on both sides alike.
			for _, enabled := range [2]bool{trial%2 == 1, trial%2 == 0} {
				s := sim.New(sim.Config{Model: cfg.Model, EnableFI: enabled, MaxInsts: 2_000_000_000})
				if err := s.Load(p); err != nil {
					return nil, err
				}
				runtime.GC()
				start := time.Now()
				r := s.Run()
				elapsed := time.Since(start).Seconds()
				if r.Failed() {
					return nil, fmt.Errorf("fig7: %s failed: %+v", w.Name, r)
				}
				if enabled {
					gemfi.Add(elapsed)
					cfg.Metrics.Histogram("campaign.fig7.gemfi_us").Observe(elapsed * 1e6)
				} else {
					vanilla.Add(elapsed)
					cfg.Metrics.Histogram("campaign.fig7.vanilla_us").Observe(elapsed * 1e6)
				}
			}
		}
		over := 100 * (gemfi.Value() - vanilla.Value()) / vanilla.Value()
		// CI of the overhead via the CI of the GemFI mean against the
		// vanilla mean (normal approximation, as in the paper's 95% CI).
		lo, hi := gemfi.Interval(0.95)
		rep.Rows = append(rep.Rows, Fig7Row{
			Workload:    w.Name,
			VanillaSec:  vanilla.Value(),
			GemFISec:    gemfi.Value(),
			OverheadPct: over,
			CILowPct:    100 * (lo - vanilla.Value()) / vanilla.Value(),
			CIHighPct:   100 * (hi - vanilla.Value()) / vanilla.Value(),
			Trials:      cfg.Trials,
		})
	}
	return rep, nil
}

// String renders the overhead table.
func (r *Fig7Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %12s %12s %10s %18s\n", "app", "vanilla(s)", "gemfi(s)", "overhead", "95% CI")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s %12.4f %12.4f %9.2f%% [%6.2f%%, %6.2f%%]\n",
			row.Workload, row.VanillaSec, row.GemFISec, row.OverheadPct, row.CILowPct, row.CIHighPct)
	}
	return sb.String()
}

// Fig8Row is the campaign-time measurement for one application: the
// no-checkpoint baseline, the checkpoint-fast-forwarded campaign, and
// the parallel (NoW-style) campaign.
type Fig8Row struct {
	Workload string `json:"workload"`

	Experiments int `json:"experiments"`

	BaselineSec   float64 `json:"baselineSec"`
	CheckpointSec float64 `json:"checkpointSec"`
	ParallelSec   float64 `json:"parallelSec"`

	CheckpointSpeedup float64 `json:"checkpointSpeedup"`
	ParallelSpeedup   float64 `json:"parallelSpeedup"` // vs checkpointed
	Workers           int     `json:"workers"`
}

// Fig8Report reproduces Fig. 8.
type Fig8Report struct {
	Rows []Fig8Row `json:"rows"`
}

// Fig8Config parameterizes the campaign-time study.
type Fig8Config struct {
	Workloads   []*workloads.Workload
	Experiments int
	Workers     int // simultaneous experiments in the parallel phase
	Seed        int64
	Cfg         *sim.Config
	// Metrics, when set, records the per-phase campaign times as gauges
	// (campaign.fig8.<workload>.{baseline,checkpoint,parallel}_sec).
	Metrics *obs.Registry
}

// RunFig8 measures the campaign-time effect of GemFI's two optimizations
// (checkpoint fast-forwarding and parallel execution).
func RunFig8(cfg Fig8Config) (*Fig8Report, error) {
	if cfg.Experiments <= 0 {
		cfg.Experiments = 20
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	rep := &Fig8Report{}
	for _, w := range cfg.Workloads {
		row := Fig8Row{Workload: w.Name, Experiments: cfg.Experiments, Workers: cfg.Workers}

		// Baseline: no checkpointing — every experiment re-simulates
		// boot + initialization.
		base, err := NewRunner(w, RunnerOptions{Cfg: cfg.Cfg, DisableCheckpoint: true})
		if err != nil {
			return nil, err
		}
		exps := GenerateUniform(cfg.Experiments, GenConfig{
			WindowInsts: base.WindowInsts, Seed: cfg.Seed,
		})
		start := time.Now()
		for _, e := range exps {
			base.Run(e)
		}
		row.BaselineSec = time.Since(start).Seconds()

		// Checkpoint fast-forwarding, serial.
		ck, err := NewRunner(w, RunnerOptions{Cfg: cfg.Cfg})
		if err != nil {
			return nil, err
		}
		start = time.Now()
		for _, e := range exps {
			ck.Run(e)
		}
		row.CheckpointSec = time.Since(start).Seconds()

		// Checkpoint + parallel workers (the NoW effect, in-process).
		pool, err := NewPool(w, cfg.Workers, RunnerOptions{Cfg: cfg.Cfg})
		if err != nil {
			return nil, err
		}
		start = time.Now()
		pool.RunAll(exps)
		row.ParallelSec = time.Since(start).Seconds()

		if row.CheckpointSec > 0 {
			row.CheckpointSpeedup = row.BaselineSec / row.CheckpointSec
			row.ParallelSpeedup = row.CheckpointSec / row.ParallelSec
		}
		prefix := "campaign.fig8." + w.Name + "."
		cfg.Metrics.Gauge(prefix + "baseline_sec").Set(row.BaselineSec)
		cfg.Metrics.Gauge(prefix + "checkpoint_sec").Set(row.CheckpointSec)
		cfg.Metrics.Gauge(prefix + "parallel_sec").Set(row.ParallelSec)
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// String renders the campaign-time table.
func (r *Fig8Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %6s %12s %12s %12s %10s %10s\n",
		"app", "exps", "baseline(s)", "ckpt(s)", "parallel(s)", "ckpt-spdup", "par-spdup")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s %6d %12.3f %12.3f %12.3f %9.1fx %9.1fx\n",
			row.Workload, row.Experiments, row.BaselineSec, row.CheckpointSec,
			row.ParallelSec, row.CheckpointSpeedup, row.ParallelSpeedup)
	}
	return sb.String()
}
