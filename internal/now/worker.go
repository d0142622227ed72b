package now

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// WorkerConfig parameterizes a workstation process. It holds deployment
// settings only: every setting that can change a result (model,
// watchdog, fork server, observers) arrives in the master's welcome.
type WorkerConfig struct {
	// Addr is the master's address.
	Addr string
	// Slots is how many experiments run simultaneously (the paper ran 4
	// per quad-core workstation).
	Slots int
	// Name identifies the worker in master logs.
	Name string

	// DialAttempts is how many times a slot tries to reach the master
	// before giving up (default 3) — campaigns on non-dedicated machines
	// routinely race worker start against master start.
	DialAttempts int
	// DialBackoff is the wait before the first retry; it doubles per
	// attempt (default 100ms).
	DialBackoff time.Duration

	// ExpTimeout bounds one experiment's wall time; 0 means unbounded.
	// On expiry the simulation is interrupted at its next poll point and
	// the experiment retried locally.
	ExpTimeout time.Duration
	// ExpRetries is how many local retries a timed-out experiment gets
	// before being reported to the master as crashed ("interrupted").
	ExpRetries int

	// Heartbeat is the interval between liveness messages to the master,
	// the first sent before the first fetch; 0 disables them.
	Heartbeat time.Duration

	// Metrics, when set, receives worker counters (now.worker.*): dial
	// retries, experiment timeouts and retries, completed experiments.
	Metrics *obs.Registry
}

// Worker pulls experiments from a master and executes them locally from
// the received checkpoint.
type Worker struct {
	cfg WorkerConfig
}

// NewWorker returns a worker; call Run to process the campaign.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = 3
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 100 * time.Millisecond
	}
	return &Worker{cfg: cfg}
}

// Run processes experiments until the master reports the campaign done.
// Each slot opens its own connection (its own "simulation process"), so
// slot failures are independent. It returns the number of experiments
// this worker completed.
func (w *Worker) Run() (int, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int
		first error
	)
	for i := 0; i < w.cfg.Slots; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			n, err := w.runSlot(fmt.Sprintf("%s/slot%d", w.cfg.Name, slot))
			mu.Lock()
			defer mu.Unlock()
			total += n
			if err != nil && first == nil {
				first = err
			}
		}(i)
	}
	wg.Wait()
	return total, first
}

// dial connects to the master with exponential backoff: campaign launch
// scripts start masters and workers concurrently, so the first attempts
// may land before the master listens.
func (w *Worker) dial() (net.Conn, error) {
	backoff := w.cfg.DialBackoff
	var lastErr error
	for attempt := 0; attempt < w.cfg.DialAttempts; attempt++ {
		if attempt > 0 {
			w.cfg.Metrics.Counter("now.worker.dial_retries").Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		raw, err := net.Dial("tcp", w.cfg.Addr)
		if err == nil {
			return raw, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("now: dial master %s (%d attempts): %w",
		w.cfg.Addr, w.cfg.DialAttempts, lastErr)
}

// runSlot is one slot's fetch/execute/report loop.
func (w *Worker) runSlot(name string) (int, error) {
	raw, err := w.dial()
	if err != nil {
		return 0, err
	}
	c := newConn(raw)
	defer c.close()

	if err := c.send(Message{Type: MsgHello, WorkerName: name}); err != nil {
		return 0, err
	}
	welcome, err := c.recv()
	if err != nil {
		return 0, err
	}
	if welcome.Type == MsgDone {
		return 0, nil // the master has nothing for this slot to run
	}
	if welcome.Type != MsgWelcome || welcome.Welcome == nil {
		return 0, fmt.Errorf("now: expected welcome, got %q", welcome.Type)
	}

	runner, err := buildRunner(*welcome.Welcome)
	if err != nil {
		return 0, err
	}
	// When the master traces spans, this slot records its side of every
	// experiment locally and ships the records back on each result; the
	// traces are rooted at the master, so nothing completes (or is
	// sampled) here — the recorder is just a staging buffer.
	var spans *obs.SpanRecorder
	if welcome.Welcome.SpanTrace {
		spans = obs.NewSpanRecorder()
		runner.AttachSpans(spans, name)
	}

	if w.cfg.Heartbeat > 0 {
		// The first beat goes out before the first fetch, so the master
		// sees a slot alive even when its whole share ends inside one
		// interval.
		if err := c.send(Message{Type: MsgHeartbeat, WorkerName: name}); err != nil {
			return 0, err
		}
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(w.cfg.Heartbeat)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if c.send(Message{Type: MsgHeartbeat, WorkerName: name}) != nil {
						return
					}
				}
			}
		}()
	}

	completed := 0
	completedCounter := w.cfg.Metrics.Counter("now.worker.completed")
	for {
		if err := c.send(Message{Type: MsgFetch}); err != nil {
			return completed, err
		}
		msg, err := c.recv()
		if err != nil {
			return completed, err
		}
		switch msg.Type {
		case MsgDone:
			return completed, nil
		case MsgExperiment:
			var ctx obs.SpanContext
			var wsp *obs.Span
			if spans != nil && msg.Trace != nil {
				wsp = spans.StartSpan("worker", *msg.Trace)
				wsp.SetTrack(name)
				wsp.SetAttr("worker", name)
				wsp.SetAttr("exp_id", msg.Experiment.ID)
				ctx = wsp.Context()
			}
			res := w.runExperiment(runner, *msg.Experiment, ctx)
			res.Worker = name
			out := Message{Type: MsgResult, Result: &res}
			if wsp != nil {
				wsp.SetAttr("outcome", res.Outcome.String())
				wsp.End()
				out.Spans = spans.TakeTrace(msg.Trace.TraceID)
			}
			if err := c.send(out); err != nil {
				return completed, err
			}
			completed++
			completedCounter.Inc()
		case MsgError:
			return completed, fmt.Errorf("now: master error: %s", msg.Error)
		default:
			return completed, fmt.Errorf("now: unexpected message %q", msg.Type)
		}
	}
}

// runExperiment executes one experiment under the configured wall-time
// bound, retrying timed-out runs up to ExpRetries times. The timeout
// interrupts the simulation at its next poll point. An interrupt is
// consumed by no fork, so each attempt clears a stale one before arming
// its timer, and waits out a timer that fired too late to stop it: its
// interrupt then lands before the next attempt's clear, never after.
func (w *Worker) runExperiment(runner *campaign.Runner, exp campaign.Experiment, ctx obs.SpanContext) campaign.Result {
	for attempt := 0; ; attempt++ {
		runner.ClearInterrupt()
		var timer *time.Timer
		var fired chan struct{}
		if w.cfg.ExpTimeout > 0 {
			fired = make(chan struct{})
			timer = time.AfterFunc(w.cfg.ExpTimeout, func() {
				runner.Interrupt()
				close(fired)
			})
		}
		res := runner.RunCtx(exp, ctx)
		if timer != nil && !timer.Stop() {
			<-fired
		}
		if res.CrashCause != campaign.CrashInterrupted {
			return res
		}
		w.cfg.Metrics.Counter("now.worker.timeouts").Inc()
		if attempt >= w.cfg.ExpRetries {
			return res
		}
		w.cfg.Metrics.Counter("now.worker.retries").Inc()
	}
}

// buildRunner reconstructs the campaign runner from a welcome: the
// program is rebuilt deterministically from (workload, scale), the
// simulator state comes from the shipped checkpoint — the "local copy of
// the checkpoint" of the paper's step 3 — and the runner derives the
// golden outputs from it with its own atomic fault-free continuation.
// Everything that can change a result comes from the welcome.
func buildRunner(wel Welcome) (*campaign.Runner, error) {
	model, err := sim.ParseModel(wel.Model)
	if err != nil {
		return nil, err
	}
	wl, err := workloads.ByName(wel.Workload, workloads.Scale(wel.Scale))
	if err != nil {
		return nil, err
	}
	st, err := checkpoint.FromBytes(wel.Checkpoint)
	if err != nil {
		return nil, err
	}
	cfg := campaign.SimConfig(model, wel.MaxInsts)
	cfg.EnableTaint, cfg.EnableFlight = wel.Taint, wel.Flight
	runner, err := campaign.NewRunner(wl, campaign.RunnerOptions{Cfg: &cfg, Checkpoint: st})
	if err != nil {
		return nil, err
	}
	if wel.Fork {
		if err := runner.EnableFork(campaign.DefaultForkOptions()); err != nil {
			return nil, err
		}
	}
	return runner, nil
}
