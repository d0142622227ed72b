package now

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// This file implements the paper's NoW mechanism literally (Section
// III.E): a shared network filesystem holds "the fault description files
// of the experiments, the simulation checkpoints and the output of each
// simulation", and each workstation repeatedly claims one remaining
// experiment and executes it locally from the checkpointed state.
//
// Share layout:
//
//	<share>/meta.json              workload name, scale, model, limits
//	<share>/checkpoint.gob         the post-fi_read_init_all state
//	<share>/experiments/<id>.fault fault description, Listing-1 format
//	<share>/claims/<id>.fault      claimed experiments (atomic rename)
//	<share>/results/<id>.json      one result per finished experiment
//
// Claiming is an os.Rename from experiments/ into claims/, which is
// atomic on POSIX filesystems (including NFS for same-directory renames
// as used by the original scripts).

// shareMeta is the campaign description stored on the share.
type shareMeta struct {
	Workload string `json:"workload"`
	Scale    int    `json:"scale"`
	Model    string `json:"model"`
	MaxInsts uint64 `json:"maxInsts"`
}

// ShareConfig parameterizes PrepareShare.
type ShareConfig struct {
	Workload string
	Scale    workloads.Scale
	Model    sim.ModelKind
	// MaxInsts is the experiment watchdog; zero derives it from the
	// golden run. meta.json records the resulting limit.
	MaxInsts uint64
}

// PrepareShare takes the runner's atomic golden pass, which captures the
// fi_read_init_all checkpoint, measures the fault window and derives the
// watchdog, and puts the checkpoint and meta.json on the share
// directory. It returns the window size, from which the caller draws the
// experiments WriteExperiments adds (steps 1–2 of the paper's
// procedure).
func PrepareShare(dir string, cfg ShareConfig) (windowInsts uint64, err error) {
	if cfg.Model == "" {
		cfg.Model = sim.ModelAtomic
	}
	w, err := workloads.ByName(cfg.Workload, cfg.Scale)
	if err != nil {
		return 0, err
	}
	runnerCfg := campaign.SimConfig(cfg.Model, cfg.MaxInsts)
	runner, err := campaign.NewRunner(w, campaign.RunnerOptions{Cfg: &runnerCfg})
	if err != nil {
		return 0, err
	}
	for _, sub := range []string{"experiments", "claims", "results"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return 0, err
		}
	}
	if err := runner.Ckpt.SaveFile(filepath.Join(dir, "checkpoint.gob")); err != nil {
		return 0, err
	}
	meta := shareMeta{
		Workload: cfg.Workload,
		Scale:    int(cfg.Scale),
		Model:    string(cfg.Model),
		MaxInsts: runner.Cfg.MaxInsts,
	}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), mb, 0o644); err != nil {
		return 0, err
	}
	return runner.WindowInsts, nil
}

// WriteExperiments puts one fault description file per experiment on a
// prepared share.
func WriteExperiments(dir string, exps []campaign.Experiment) error {
	for _, exp := range exps {
		var sb strings.Builder
		for _, f := range exp.Faults {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
		name := filepath.Join(dir, "experiments", fmt.Sprintf("%06d.fault", exp.ID))
		if err := os.WriteFile(name, []byte(sb.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func readMeta(dir string) (shareMeta, error) {
	var meta shareMeta
	b, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		return meta, fmt.Errorf("now: bad share meta: %w", err)
	}
	return meta, nil
}

// FileWorker processes experiments from a share directory until none are
// left (steps 3–6 of the paper's procedure). It returns how many
// experiments it completed.
func FileWorker(dir string) (int, error) {
	meta, err := readMeta(dir)
	if err != nil {
		return 0, err
	}
	st, err := checkpoint.LoadFile(filepath.Join(dir, "checkpoint.gob"))
	if err != nil {
		return 0, err
	}
	w, err := workloads.ByName(meta.Workload, workloads.Scale(meta.Scale))
	if err != nil {
		return 0, err
	}
	model, err := sim.ParseModel(meta.Model)
	if err != nil {
		return 0, err
	}
	cfg := campaign.SimConfig(model, meta.MaxInsts)
	runner, err := campaign.NewRunner(w, campaign.RunnerOptions{Cfg: &cfg, Checkpoint: st})
	if err != nil {
		return 0, err
	}

	done := 0
	for {
		name, ok, err := claimOne(dir)
		if err != nil {
			return done, err
		}
		if !ok {
			return done, nil
		}
		id, faults, err := loadExperiment(filepath.Join(dir, "claims", name))
		if err != nil {
			return done, err
		}
		res := runner.Run(campaign.Experiment{ID: id, Faults: faults})
		rb, err := json.Marshal(res)
		if err != nil {
			return done, err
		}
		out := filepath.Join(dir, "results", fmt.Sprintf("%06d.json", id))
		if err := os.WriteFile(out, rb, 0o644); err != nil {
			return done, err
		}
		done++
	}
}

// claimOne atomically moves one pending experiment into claims/.
// Concurrent workers race on the rename; the loser retries the next
// file.
func claimOne(dir string) (string, bool, error) {
	entries, err := os.ReadDir(filepath.Join(dir, "experiments"))
	if err != nil {
		return "", false, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".fault") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		src := filepath.Join(dir, "experiments", name)
		dst := filepath.Join(dir, "claims", name)
		if err := os.Rename(src, dst); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // lost the race for this one
			}
			return "", false, err
		}
		return name, true, nil
	}
	return "", false, nil
}

// loadExperiment parses a claimed .fault file.
func loadExperiment(path string) (int, []core.Fault, error) {
	base := strings.TrimSuffix(filepath.Base(path), ".fault")
	id := 0
	if _, err := fmt.Sscanf(base, "%d", &id); err != nil {
		return 0, nil, fmt.Errorf("now: bad experiment file name %q", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	faults, err := core.ParseFaults(f)
	if err != nil {
		return 0, nil, err
	}
	return id, faults, nil
}

// CollectResults waits until the share holds want results (or the
// timeout passes) and returns them ordered by experiment ID (step 5: the
// results are moved back to the share).
func CollectResults(dir string, want int, timeout time.Duration) ([]campaign.Result, error) {
	deadline := time.Now().Add(timeout)
	for {
		results, err := readResults(dir)
		if err != nil {
			return nil, err
		}
		if len(results) >= want {
			return results, nil
		}
		if time.Now().After(deadline) {
			return results, fmt.Errorf("now: collected %d of %d results before timeout", len(results), want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func readResults(dir string) ([]campaign.Result, error) {
	entries, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		return nil, err
	}
	var out []campaign.Result
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, "results", e.Name()))
		if err != nil {
			return nil, err
		}
		var r campaign.Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("now: bad result file %s: %w", e.Name(), err)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// RequeueStaleClaims moves claimed-but-unfinished experiments back into
// the queue (recovery after a workstation death, the hazard the paper's
// checkpointing guards against on non-dedicated machines).
func RequeueStaleClaims(dir string) (int, error) {
	entries, err := os.ReadDir(filepath.Join(dir, "claims"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".fault") {
			continue
		}
		id := strings.TrimSuffix(e.Name(), ".fault")
		if _, err := os.Stat(filepath.Join(dir, "results", id+".json")); err == nil {
			continue // finished; leave the claim as a record
		}
		if err := os.Rename(filepath.Join(dir, "claims", e.Name()),
			filepath.Join(dir, "experiments", e.Name())); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
