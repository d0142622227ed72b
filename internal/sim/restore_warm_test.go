package sim

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/mem"
)

// restoreWarmProgram mutates every word of a buffer after the checkpoint,
// so any stale micro-TLB translation, predecoded instruction, or MRU
// cache-line pointer surviving a restore would read post-checkpoint
// values out of pre-checkpoint state (or vice versa) and change the sum.
const restoreWarmProgram = `
int buf[64];
int out[1];
int main() {
    int i = 0;
    for (i = 0; i < 64; i = i + 1) { buf[i] = i + 1; }
    fi_checkpoint();
    int s = 0;
    for (i = 0; i < 64; i = i + 1) { buf[i] = buf[i] * 3; s = s + buf[i]; }
    out[0] = s;
    return 0;
}`

// TestRestoreIntoWarmedCore restores a checkpoint into a machine that ran
// to completion first — micro-TLBs, predecode caches and cache MRU
// pointers all warm with post-checkpoint state — and requires the re-run
// to finish bit-identical to a restore into a cold machine. Guards the
// invariant that every restore path invalidates translation and decode
// state unconditionally.
func TestRestoreIntoWarmedCore(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelTiming, ModelPipelined} {
		cfg := Config{Model: model, EnableFI: true, MaxInsts: 10_000_000}

		warm := compileMC(t, restoreWarmProgram, cfg)
		var st *checkpoint.State
		warm.OnCheckpoint = func(sm *Simulator) {
			if st == nil {
				st = sm.Checkpoint()
			}
		}
		if r := warm.Run(); r.Failed() {
			t.Fatalf("%s: first run failed: %+v", model, r)
		}
		if st == nil {
			t.Fatalf("%s: fi_checkpoint never hit", model)
		}
		// The machine is fully warmed with end-of-run state; restoring must
		// not let any of it leak into the re-run.
		warm.Restore(st, nil)
		warmRes := warm.Run()

		cold := compileMC(t, restoreWarmProgram, cfg)
		cold.Restore(st, nil)
		coldRes := cold.Run()

		if warmRes.Failed() || coldRes.Failed() {
			t.Fatalf("%s: restored runs failed: warm %+v, cold %+v", model, warmRes, coldRes)
		}
		if !warm.Core.Arch.BitsEqual(&cold.Core.Arch) {
			t.Errorf("%s: stale state leaked through restore: architectural state diverged", model)
		}
		if warm.Core.Insts != cold.Core.Insts || warm.Core.Ticks != cold.Core.Ticks {
			t.Errorf("%s: counters diverged: insts %d vs %d, ticks %d vs %d",
				model, warm.Core.Insts, cold.Core.Insts, warm.Core.Ticks, cold.Core.Ticks)
		}
		if _, total := mem.DiffSnapshots(warm.Mem.Snapshot(), cold.Mem.Snapshot(), 4); total != 0 {
			t.Errorf("%s: %d bytes of memory diverged after warm restore", model, total)
		}
	}
}

// TestForkIntoWarmedSimulator is the fork-server variant: ForkFrom must
// scrub a simulator that has already run other experiments as thoroughly
// as Restore does.
func TestForkIntoWarmedSimulator(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelPipelined} {
		cfg := Config{Model: model, EnableFI: true, MaxInsts: 10_000_000}

		trunk := compileMC(t, restoreWarmProgram, cfg)
		trunk.Cfg.StopAtCheckpoint = true
		if r := trunk.Run(); !r.StoppedAtCheckpoint {
			t.Fatalf("%s: trunk did not stop at checkpoint: %+v", model, r)
		}
		fp := trunk.CaptureForkPoint()

		// Cold child: fork immediately after load.
		cold := compileMC(t, restoreWarmProgram, cfg)
		cold.ForkFrom(fp, nil)
		coldRes := cold.Run()

		// Warm child: a full prior run, then the fork.
		warm := compileMC(t, restoreWarmProgram, cfg)
		if r := warm.Run(); r.Failed() {
			t.Fatalf("%s: warm-up run failed: %+v", model, r)
		}
		warm.ForkFrom(fp, nil)
		warmRes := warm.Run()

		if warmRes.Failed() || coldRes.Failed() {
			t.Fatalf("%s: forked runs failed: warm %+v, cold %+v", model, warmRes, coldRes)
		}
		if !warm.Core.Arch.BitsEqual(&cold.Core.Arch) {
			t.Errorf("%s: stale state leaked through ForkFrom", model)
		}
		if _, total := mem.DiffSnapshots(warm.Mem.Snapshot(), cold.Mem.Snapshot(), 4); total != 0 {
			t.Errorf("%s: %d bytes of memory diverged after warm fork", model, total)
		}
	}
}

// walkWindowProgram gives a walk point something to carry: inside the FI
// window a data-dependent branch trains the predictor, a strided sweep
// fills and evicts cache lines, and console output lands on both sides
// of the capture.
const walkWindowProgram = `
int buf[2048];
int out[1];
int main() {
    int i = 0;
    for (i = 0; i < 2048; i = i + 1) { buf[i] = i * 7; }
    fi_checkpoint();
    fi_activate(0);
    int s = 0;
    int r = 0;
    for (r = 0; r < 6; r = r + 1) {
        for (i = 0; i < 2048; i = i + 37) {
            if ((buf[i] + r) % 3 == 0) { s = s + buf[i]; } else { s = s - 1; }
            buf[(i * 5) % 2048] = s;
        }
        putc(65 + r);
    }
    fi_activate(0);
    out[0] = s;
    putc(10);
    return 0;
}`

// TestForkPointWarmRoundTrip is the warm walk point's round trip: capture
// one mid-window at a cycle boundary, fork it into a simulator warmed by
// an unrelated run, and require both to finish identically — instruction
// and tick counts, console, squashes, mispredicts and every cache level's
// hit and miss counts.
func TestForkPointWarmRoundTrip(t *testing.T) {
	for _, model := range []ModelKind{ModelTiming, ModelPipelined} {
		cfg := Config{Model: model, EnableFI: true, MaxInsts: 10_000_000}
		orig := compileMC(t, walkWindowProgram, cfg)
		res := RunResult{Paused: true}
		for res.Paused && !orig.Engine.WindowOpen() {
			res = orig.RunUntil(orig.Core.Insts + 256)
		}
		if res = orig.RunUntil(orig.Core.Insts + 3000); !res.Paused || !orig.Engine.WindowOpen() {
			t.Fatalf("%s: no mid-window pause: %+v", model, res)
		}
		wp := orig.CaptureWalkPoint()
		if wp.Warm == nil || !wp.Window.Open() {
			t.Fatalf("%s: walk point is not warm and mid-window", model)
		}
		want := orig.Run()

		// An unrelated run warms every structure the walk point restores.
		warm := compileMC(t, restoreWarmProgram, cfg)
		if r := warm.Run(); r.Failed() {
			t.Fatalf("%s: warm-up run failed: %+v", model, r)
		}
		warm.ForkFrom(wp, nil)
		got := warm.Run()

		if got.Failed() || want.Failed() {
			t.Fatalf("%s: runs failed: restored %+v, original %+v", model, got, want)
		}
		if got.Insts != want.Insts || got.Ticks != want.Ticks || got.Console != want.Console {
			t.Errorf("%s: restored run ended at insts %d ticks %d console %q, original %d %d %q",
				model, got.Insts, got.Ticks, got.Console, want.Insts, want.Ticks, want.Console)
		}
		if model == ModelPipelined {
			gp, wp := warm.Model.(*cpu.PipelinedModel), orig.Model.(*cpu.PipelinedModel)
			if gp.Squashes != wp.Squashes || gp.Pred.Mispredicts != wp.Pred.Mispredicts {
				t.Errorf("%s: squashes %d mispredicts %d, original %d %d",
					model, gp.Squashes, gp.Pred.Mispredicts, wp.Squashes, wp.Pred.Mispredicts)
			}
		}
		for _, lv := range []struct {
			name      string
			got, want *mem.Cache
		}{
			{"l1i", warm.Hier.L1I, orig.Hier.L1I},
			{"l1d", warm.Hier.L1D, orig.Hier.L1D},
			{"l2", warm.Hier.L2, orig.Hier.L2},
		} {
			if g, w := lv.got.Stats(), lv.want.Stats(); g != w {
				t.Errorf("%s: %s stats %+v, original %+v", model, lv.name, g, w)
			}
		}
	}
}
