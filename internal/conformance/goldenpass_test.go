package conformance

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/taint"
	"repro/internal/workloads"
)

// metricValue reads one metric from a registry snapshot (0 when absent).
func metricValue(reg *obs.Registry, name string) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestGoldenPassReferee pins the campaign runner's golden pass, which
// runs on the translated atomic model whatever model the experiments
// use, to a fault-free run of the experiments' own detailed model from
// boot. Everything the runner keeps from the pass must be what that run
// produces: the golden outputs and exit status, the fault-window size,
// the fi_read_init_all checkpoint (committed instructions, architectural
// state, memory image, kernel state) and the taint differ's final state.
// The pass must also have run translated blocks, so a regression to a
// detailed golden pass fails here rather than only in the benchmark.
func TestGoldenPassReferee(t *testing.T) {
	for _, w := range workloads.All(workloads.ScaleTest) {
		for _, model := range []sim.ModelKind{sim.ModelTiming, sim.ModelPipelined} {
			label := fmt.Sprintf("%s/%s", w.Name, model)
			cfg := sim.DefaultConfig()
			cfg.Model = model
			refCfg := cfg

			reg := obs.NewRegistry()
			cfg.Metrics = reg
			cfg.EnableTaint = true // observers must not slow the golden pass
			r, err := campaign.NewRunner(w, campaign.RunnerOptions{Cfg: &cfg})
			if err != nil {
				t.Fatalf("%s: runner: %v", label, err)
			}
			if n := metricValue(reg, "cpu.bbt.insts_translated"); n == 0 {
				t.Errorf("%s: the golden pass executed no translated block", label)
			}

			ref := loadSim(t, w, refCfg)
			var ckpt *checkpoint.State
			ref.OnCheckpoint = func(s *sim.Simulator) {
				if ckpt == nil {
					ckpt = s.Checkpoint()
				}
			}
			if res := ref.Run(); !res.Exited || res.Failed() {
				t.Fatalf("%s: reference run did not exit cleanly: %+v", label, res)
			}
			golden, err := workloads.Extract(w, ref)
			if err != nil {
				t.Fatalf("%s: extract: %v", label, err)
			}
			golden.ExitStatus = ref.Core.ExitStatus
			if !reflect.DeepEqual(r.Golden, golden) {
				t.Errorf("%s: golden outputs diverged: %+v vs %+v", label, r.Golden, golden)
			}
			if want := ref.Engine.WindowCommits(); r.WindowInsts != want {
				t.Errorf("%s: window %d insts, reference %d", label, r.WindowInsts, want)
			}

			if ckpt == nil || r.Ckpt == nil {
				t.Fatalf("%s: missing checkpoint (runner %v, reference %v)", label, r.Ckpt != nil, ckpt != nil)
			}
			if r.Ckpt.Core.Insts != ckpt.Core.Insts {
				t.Errorf("%s: checkpoint at inst %d, reference %d", label, r.Ckpt.Core.Insts, ckpt.Core.Insts)
			}
			if !r.Ckpt.Core.Arch.BitsEqual(&ckpt.Core.Arch) {
				t.Errorf("%s: checkpoint architectural state diverged", label)
			}
			if _, total := mem.DiffSnapshots(r.Ckpt.Mem, ckpt.Mem, 4); total != 0 {
				t.Errorf("%s: %d checkpoint memory bytes diverged", label, total)
			}
			if !reflect.DeepEqual(r.Ckpt.Kernel, ckpt.Kernel) {
				t.Errorf("%s: checkpoint kernel state diverged", label)
			}

			tg, want := r.TaintGolden(), taint.CaptureGolden(&ref.Core.Arch, ref.Mem)
			if tg == nil {
				t.Fatalf("%s: EnableTaint captured no golden state", label)
			}
			if !tg.Arch.BitsEqual(&want.Arch) {
				t.Errorf("%s: taint golden architectural state diverged", label)
			}
			if _, total := mem.DiffSnapshots(tg.Mem, want.Mem, 4); total != 0 {
				t.Errorf("%s: %d taint golden memory bytes diverged", label, total)
			}
		}
	}
}
