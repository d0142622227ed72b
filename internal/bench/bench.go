// Package bench measures the simulator's core throughput numbers —
// guest instructions per second per CPU model and campaign experiments
// per second — and records them in BENCH_simcore.json so the performance
// trajectory is tracked across PRs. The committed file always contains
// the history of labelled records; CI regenerates a "ci" record in short
// mode and uploads it as an artifact.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// ModelResult is one CPU model's measured simulation throughput.
type ModelResult struct {
	Insts       uint64  `json:"insts"`       // guest instructions retired per run
	Seconds     float64 `json:"seconds"`     // best-of-reps wall time of one run
	InstsPerSec float64 `json:"instsPerSec"` // Insts / Seconds
}

// CampaignResult is a campaign configuration's measured throughput.
type CampaignResult struct {
	Experiments int     `json:"experiments"`
	Workers     int     `json:"workers"`
	Seconds     float64 `json:"seconds"`
	ExpsPerSec  float64 `json:"expsPerSec"`

	// Fork-server extras (omitted for replay configurations). The trunk
	// run is one-time setup amortized over the whole campaign, so it is
	// reported separately rather than folded into Seconds.
	TrunkSeconds  float64 `json:"trunkSeconds,omitempty"`
	SnapshotBytes uint64  `json:"snapshotBytes,omitempty"`
	Pruned        uint64  `json:"pruned,omitempty"`
}

// Record is one labelled measurement of the whole suite.
type Record struct {
	Label     string                    `json:"label"`
	Date      string                    `json:"date"`
	GoVersion string                    `json:"goVersion"`
	Workload  string                    `json:"workload"`
	Scale     string                    `json:"scale"`
	Models    map[string]ModelResult    `json:"models"`
	Campaigns map[string]CampaignResult `json:"campaigns"`
	// Sampling compares adaptive importance sampling against the uniform
	// referee per workload (test scale, fixed budget); present when the
	// suite ran with sampling measurement enabled.
	Sampling map[string]SamplingResult `json:"sampling,omitempty"`
}

// File is the BENCH_simcore.json schema: append-only labelled records,
// oldest first. Comparing the newest record against "baseline" gives the
// cumulative speedup.
type File struct {
	Records []Record `json:"records"`
}

// Load reads an existing benchmark file; a missing file yields an empty
// one (the first run creates it).
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &File{}, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &f, nil
}

// Save writes the benchmark file with stable indentation.
func (f *File) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Find returns the record with the given label (newest wins), or nil.
func (f *File) Find(label string) *Record {
	for i := len(f.Records) - 1; i >= 0; i-- {
		if f.Records[i].Label == label {
			return &f.Records[i]
		}
	}
	return nil
}

// Add appends a record, replacing any previous record with the same
// label so re-runs don't accumulate duplicates.
func (f *File) Add(r Record) {
	out := f.Records[:0]
	for _, old := range f.Records {
		if old.Label != r.Label {
			out = append(out, old)
		}
	}
	f.Records = append(out, r)
}

// Config parameterizes a measurement run.
type Config struct {
	Label    string
	Workload string          // workload name (default "pi")
	Scale    workloads.Scale // default ScaleSmall; ScaleTest for -quick
	Reps     int             // best-of repetitions (default 3)

	// CampaignExps is the experiment count for the campaign throughput
	// measurements (default 40; 8 in quick mode).
	CampaignExps int
	// CampaignWorkers is the pool size (default 4).
	CampaignWorkers int

	// Sampling enables the adaptive-vs-uniform accuracy suite over all
	// paper workloads (test scale); SamplingBudget is the per-mode
	// experiment budget (default 48 over 8 strata, batches of 12).
	Sampling       bool
	SamplingBudget int
}

func (c Config) withDefaults() Config {
	if c.Workload == "" {
		c.Workload = "pi"
	}
	if c.Scale == 0 {
		c.Scale = workloads.ScaleSmall
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.CampaignExps <= 0 {
		c.CampaignExps = 40
	}
	if c.CampaignWorkers <= 0 {
		c.CampaignWorkers = 4
	}
	return c
}

// MeasureModel runs the workload once per rep on the given model (fault
// engine attached but idle — the campaign-realistic configuration) and
// returns the best run.
func MeasureModel(w *workloads.Workload, model sim.ModelKind, reps int) (ModelResult, error) {
	return measureModel(w, model, reps, false, false)
}

// MeasureModelFlight is MeasureModel with the flight recorder attached —
// the post-mortem configuration. The delta against the plain model run is
// the recorder's commit-path overhead.
func MeasureModelFlight(w *workloads.Workload, model sim.ModelKind, reps int) (ModelResult, error) {
	return measureModel(w, model, reps, true, false)
}

// MeasureModelBBT is MeasureModel with the basic-block translator
// attached — the "atomic-bbt" record. The ratio against the plain atomic
// run is the translation speedup the ISSUE/ROADMAP targets.
func MeasureModelBBT(w *workloads.Workload, model sim.ModelKind, reps int) (ModelResult, error) {
	return measureModel(w, model, reps, false, true)
}

func measureModel(w *workloads.Workload, model sim.ModelKind, reps int, flight, bbt bool) (ModelResult, error) {
	p, err := w.Build()
	if err != nil {
		return ModelResult{}, err
	}
	best := ModelResult{Seconds: -1}
	for i := 0; i < reps; i++ {
		s := sim.New(sim.Config{Model: model, EnableFI: true, MaxInsts: 2_000_000_000,
			EnableFlight: flight, EnableBlockTranslation: bbt})
		if err := s.Load(p); err != nil {
			return ModelResult{}, err
		}
		t0 := time.Now()
		r := s.Run()
		dt := time.Since(t0).Seconds()
		if r.Failed() {
			return ModelResult{}, fmt.Errorf("bench: %s on %s failed: %+v", w.Name, model, r)
		}
		if best.Seconds < 0 || dt < best.Seconds {
			best = ModelResult{Insts: r.Insts, Seconds: dt, InstsPerSec: float64(r.Insts) / dt}
		}
	}
	return best, nil
}

// MeasureCampaign runs n checkpoint-fast-forwarded experiments across a
// pool and returns the throughput. The configuration is the paper's
// methodology: pipelined model with the switch-to-atomic optimization,
// plus the simulator-level fast-forward prefix when ff is set.
func MeasureCampaign(w *workloads.Workload, n, workers int, ff bool, seed int64) (CampaignResult, error) {
	return measureCampaign(w, n, workers, ff, false, seed)
}

// MeasureCampaignBBT is the fast-forward campaign with the basic-block
// translator accelerating the atomic prefix and post-resolve tail — the
// "fastforward-bbt" record.
func MeasureCampaignBBT(w *workloads.Workload, n, workers int, seed int64) (CampaignResult, error) {
	return measureCampaign(w, n, workers, true, true, seed)
}

func measureCampaign(w *workloads.Workload, n, workers int, ff, bbt bool, seed int64) (CampaignResult, error) {
	cfg := sim.DefaultConfig()
	cfg.FastForward = ff
	cfg.EnableBlockTranslation = bbt
	pool, err := campaign.NewPool(w, workers, campaign.RunnerOptions{Cfg: &cfg})
	if err != nil {
		return CampaignResult{}, err
	}
	exps := campaign.GenerateUniform(n, campaign.GenConfig{
		WindowInsts: pool.Runner().WindowInsts, Seed: seed,
	})
	t0 := time.Now()
	pool.RunAll(exps)
	dt := time.Since(t0).Seconds()
	return CampaignResult{
		Experiments: n, Workers: workers, Seconds: dt, ExpsPerSec: float64(n) / dt,
	}, nil
}

// MeasureForkCampaign runs n experiments through the fork server on the
// same pool configuration as MeasureCampaign, with block translation on
// (the simulator default): the one-time trunk run (EnableFork) is timed
// separately, and the reported throughput is the steady-state
// fork-and-run rate.
func MeasureForkCampaign(w *workloads.Workload, n, workers int, seed int64) (CampaignResult, error) {
	cfg := sim.DefaultConfig()
	cfg.EnableBlockTranslation = true
	pool, err := campaign.NewPool(w, workers, campaign.RunnerOptions{Cfg: &cfg})
	if err != nil {
		return CampaignResult{}, err
	}
	t0 := time.Now()
	if err := pool.EnableFork(campaign.DefaultForkOptions()); err != nil {
		return CampaignResult{}, err
	}
	trunk := time.Since(t0).Seconds()
	exps := campaign.GenerateUniform(n, campaign.GenConfig{
		WindowInsts: pool.Runner().WindowInsts, Seed: seed,
	})
	t1 := time.Now()
	pool.RunAll(exps)
	dt := time.Since(t1).Seconds()
	st := pool.ForkStats()
	return CampaignResult{
		Experiments: n, Workers: workers, Seconds: dt, ExpsPerSec: float64(n) / dt,
		TrunkSeconds:  trunk,
		SnapshotBytes: st.ApproxBytes,
		Pruned:        st.PrunedMasked + st.PrunedTwin,
	}, nil
}

// Run executes the full measurement suite and returns the record.
// Progress lines go to logf (may be nil).
func Run(cfg Config, logf func(format string, args ...any)) (Record, error) {
	cfg = cfg.withDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	w, err := workloads.ByName(cfg.Workload, cfg.Scale)
	if err != nil {
		return Record{}, err
	}
	rec := Record{
		Label:     cfg.Label,
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Workload:  cfg.Workload,
		Scale:     scaleName(cfg.Scale),
		Models:    make(map[string]ModelResult),
		Campaigns: make(map[string]CampaignResult),
	}
	for _, model := range []sim.ModelKind{sim.ModelAtomic, sim.ModelTiming, sim.ModelPipelined} {
		mr, err := MeasureModel(w, model, cfg.Reps)
		if err != nil {
			return Record{}, err
		}
		rec.Models[string(model)] = mr
		logf("model %-9s %12.0f insts/sec (%d insts in %.3fs)", model, mr.InstsPerSec, mr.Insts, mr.Seconds)
	}
	// The flight-recorder overhead record: atomic with the ring attached.
	// Speedup ignores keys absent from the baseline, so old BENCH files
	// compare cleanly.
	fm, err := MeasureModelFlight(w, sim.ModelAtomic, cfg.Reps)
	if err != nil {
		return Record{}, err
	}
	rec.Models["atomic-flight"] = fm
	logf("model %-9s %12.0f insts/sec (%d insts in %.3fs)", "atomic-flight", fm.InstsPerSec, fm.Insts, fm.Seconds)
	// The block-translation record: atomic with hot guest code compiled
	// into fused closure chains. The ratio over plain atomic is the
	// translation speedup.
	bm, err := MeasureModelBBT(w, sim.ModelAtomic, cfg.Reps)
	if err != nil {
		return Record{}, err
	}
	rec.Models["atomic-bbt"] = bm
	logf("model %-9s %12.0f insts/sec (%d insts in %.3fs)", "atomic-bbt", bm.InstsPerSec, bm.Insts, bm.Seconds)
	for _, c := range []struct {
		name string
		ff   bool
	}{{"checkpoint", false}, {"fastforward", true}} {
		cr, err := MeasureCampaign(w, cfg.CampaignExps, cfg.CampaignWorkers, c.ff, 7)
		if err != nil {
			return Record{}, err
		}
		rec.Campaigns[c.name] = cr
		logf("campaign %-12s %8.1f exps/sec (%d exps, %d workers, %.3fs)",
			c.name, cr.ExpsPerSec, cr.Experiments, cr.Workers, cr.Seconds)
	}
	fr, err := MeasureForkCampaign(w, cfg.CampaignExps, cfg.CampaignWorkers, 7)
	if err != nil {
		return Record{}, err
	}
	br, err := MeasureCampaignBBT(w, cfg.CampaignExps, cfg.CampaignWorkers, 7)
	if err != nil {
		return Record{}, err
	}
	rec.Campaigns["fastforward-bbt"] = br
	logf("campaign %-12s %8.1f exps/sec (%d exps, %d workers, %.3fs)",
		"fastforward-bbt", br.ExpsPerSec, br.Experiments, br.Workers, br.Seconds)
	rec.Campaigns["fork"] = fr
	logf("campaign %-12s %8.1f exps/sec (%d exps, %d workers, %.3fs + %.3fs trunk, %d pruned, %d KiB snapshots)",
		"fork", fr.ExpsPerSec, fr.Experiments, fr.Workers, fr.Seconds, fr.TrunkSeconds,
		fr.Pruned, fr.SnapshotBytes/1024)
	if cfg.Sampling {
		budget := cfg.SamplingBudget
		if budget <= 0 {
			budget = 48
		}
		sampling, err := MeasureSamplingSuite(workloads.ScaleTest, budget, 8, 12,
			cfg.CampaignWorkers, 7, logf)
		if err != nil {
			return Record{}, err
		}
		rec.Sampling = sampling
	}
	return rec, nil
}

// Speedup renders the per-model and per-campaign ratios of cur over base.
func Speedup(base, cur *Record) string {
	if base == nil || cur == nil {
		return ""
	}
	out := ""
	for _, m := range []string{"atomic", "atomic-bbt", "timing", "pipelined", "atomic-flight"} {
		b, okB := base.Models[m]
		c, okC := cur.Models[m]
		if okB && okC && b.InstsPerSec > 0 {
			out += fmt.Sprintf("%-12s %6.2fx (%0.0f -> %0.0f insts/sec)\n", m, c.InstsPerSec/b.InstsPerSec, b.InstsPerSec, c.InstsPerSec)
		}
	}
	for name, c := range cur.Campaigns {
		if b, ok := base.Campaigns[name]; ok && b.ExpsPerSec > 0 {
			out += fmt.Sprintf("%-12s %6.2fx (%0.1f -> %0.1f exps/sec)\n", name, c.ExpsPerSec/b.ExpsPerSec, b.ExpsPerSec, c.ExpsPerSec)
		} else if b, ok := base.Campaigns["checkpoint"]; ok && b.ExpsPerSec > 0 {
			// New configurations compare against the plain checkpoint run.
			out += fmt.Sprintf("%-12s %6.2fx vs checkpoint (%0.1f -> %0.1f exps/sec)\n", name, c.ExpsPerSec/b.ExpsPerSec, b.ExpsPerSec, c.ExpsPerSec)
		}
	}
	return out
}

// Regressions lists the model records of cur whose throughput fell
// below ratio × base's (ratio 0.90 flags >10% regressions), sorted by
// name. Records absent from either side are skipped, so new models never
// fail against an old baseline. The CI perf job fails on a non-empty
// result.
func Regressions(base, cur *Record, ratio float64) []string {
	if base == nil || cur == nil {
		return nil
	}
	names := make([]string, 0, len(base.Models))
	for name := range base.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		b := base.Models[name]
		c, ok := cur.Models[name]
		if !ok || b.InstsPerSec <= 0 {
			continue
		}
		if r := c.InstsPerSec / b.InstsPerSec; r < ratio {
			out = append(out, fmt.Sprintf("%s: %.2fx (%0.0f -> %0.0f insts/sec)",
				name, r, b.InstsPerSec, c.InstsPerSec))
		}
	}
	return out
}

func scaleName(s workloads.Scale) string {
	switch s {
	case workloads.ScaleTest:
		return "test"
	case workloads.ScaleSmall:
		return "small"
	case workloads.ScalePaper:
		return "paper"
	default:
		return "unknown"
	}
}
