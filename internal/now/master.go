package now

import (
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// MasterConfig parameterizes a campaign master.
type MasterConfig struct {
	// Workload + Scale identify the application; workers rebuild the
	// (deterministic) program image locally and receive the checkpoint.
	Workload string
	Scale    workloads.Scale

	Experiments []campaign.Experiment

	// Model / MaxInsts configure worker simulators. A zero MaxInsts lets
	// the master's runner derive the watchdog from the golden run; the
	// welcome ships the resulting limit.
	Model    sim.ModelKind
	MaxInsts uint64

	// Quiet suppresses progress logging.
	Quiet bool

	// Metrics, when set, receives master telemetry: queue depth and
	// in-flight gauges (pull-collectors), requeue/heartbeat counters,
	// and the completed-result count. Nil disables.
	Metrics *obs.Registry

	// Spans, when set, turns on distributed span tracing: the master
	// roots one "experiment" span per dispatch, workers are told (via
	// the welcome) to record their side and ship it back on results,
	// and the worker spans are stitched under the master's span with a
	// clock-skew annotation. Experiments requeued by worker death have
	// their partial trace abandoned; the retry's fresh span carries a
	// retry_of attribute naming the abandoned trace. Nil disables.
	Spans *obs.SpanRecorder

	// Flight tells workers (via the welcome) to attach a flight recorder
	// and ship post-mortem dumps back on interesting results
	// (Result.Postmortem).
	Flight bool
}

// WorkerStat is a point-in-time view of one worker connection, built
// from hello and heartbeat messages.
type WorkerStat struct {
	// Name is the worker's self-reported name (hello WorkerName).
	Name string
	// LastSeen is the time of the last message from the worker.
	LastSeen time.Time
	// Done is the completed-experiment count from the latest heartbeat.
	Done int
}

// Master owns the experiment queue and the checkpoint, and serves
// workers over TCP.
type Master struct {
	cfg      MasterConfig
	ln       net.Listener
	ckpt     []byte
	window   uint64
	maxInsts uint64 // the runner's watchdog, shipped in every welcome
	start    time.Time

	mu       sync.Mutex
	pending  []campaign.Experiment
	flight   map[string][]campaign.Experiment // per-connection assignments
	results  map[int]campaign.Result
	workers  map[string]*WorkerStat // per-connection liveness, keyed like flight
	expSpans map[int]*masterExp     // open master-side experiment spans, by exp ID
	retryOf  map[int]string         // exp ID -> abandoned trace ID (worker died)
	requeued int
	want     int
	draining bool // Shutdown called: fetches answer done, no new takes
	doneCh   chan struct{}

	requeuedC   *obs.Counter
	heartbeatsC *obs.Counter

	wg sync.WaitGroup
}

// masterExp is the master's side of one in-flight traced experiment:
// the open root span plus the dispatch wall-clock, kept for the
// NTP-style skew estimate when the worker's spans come back.
type masterExp struct {
	span   *obs.Span
	sentNS int64
}

// NewMaster prepares the campaign: takes the runner's atomic golden pass,
// which captures the fi_read_init_all checkpoint, measures the fault
// window and derives the watchdog, and starts listening on addr (e.g.
// "127.0.0.1:0").
func NewMaster(addr string, cfg MasterConfig) (*Master, error) {
	if cfg.Model == "" {
		cfg.Model = sim.ModelAtomic
	}
	w, err := workloads.ByName(cfg.Workload, cfg.Scale)
	if err != nil {
		return nil, err
	}
	runnerCfg := simConfig(string(cfg.Model), cfg.MaxInsts)
	runner, err := campaign.NewRunner(w, campaign.RunnerOptions{Cfg: &runnerCfg})
	if err != nil {
		return nil, err
	}
	ckptBytes, err := runner.Ckpt.Bytes()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &Master{
		cfg:      cfg,
		ln:       ln,
		ckpt:     ckptBytes,
		window:   runner.WindowInsts,
		maxInsts: runner.Cfg.MaxInsts,
		start:    time.Now(),
		pending:  append([]campaign.Experiment(nil), cfg.Experiments...),
		flight:   make(map[string][]campaign.Experiment),
		results:  make(map[int]campaign.Result),
		workers:  make(map[string]*WorkerStat),
		expSpans: make(map[int]*masterExp),
		retryOf:  make(map[int]string),
		want:     len(cfg.Experiments),
		doneCh:   make(chan struct{}),
	}
	m.registerMetrics()
	m.wg.Add(1)
	go m.accept()
	return m, nil
}

// registerMetrics wires master telemetry into the configured registry;
// the gauges are pull-collectors so the scheduler pays nothing per
// experiment.
func (m *Master) registerMetrics() {
	r := m.cfg.Metrics
	m.requeuedC = r.Counter("now.master.requeued")
	m.heartbeatsC = r.Counter("now.master.heartbeats")
	if r == nil {
		return
	}
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return f()
		}
	}
	r.RegisterFunc("now.master.queue_depth", locked(func() float64 {
		return float64(len(m.pending))
	}))
	r.RegisterFunc("now.master.inflight", locked(func() float64 {
		n := 0
		for _, exps := range m.flight {
			n += len(exps)
		}
		return float64(n)
	}))
	r.RegisterFunc("now.master.results", locked(func() float64 {
		return float64(len(m.results))
	}))
	r.RegisterFunc("now.master.workers", locked(func() float64 {
		return float64(len(m.workers))
	}))
}

// Addr returns the listening address workers should dial.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// WindowInsts returns the golden run's fault-injection window size (for
// generating experiments against this master's workload).
func (m *Master) WindowInsts() uint64 { return m.window }

// Requeued returns how many experiments were returned to the queue by
// worker disconnects so far.
func (m *Master) Requeued() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requeued
}

// MasterStatus is a point-in-time view of a distributed campaign,
// served as JSON by the master CLI's -http /status endpoint.
type MasterStatus struct {
	Workload    string         `json:"workload"`
	Total       int            `json:"total"`
	Done        int            `json:"done"`
	QueueDepth  int            `json:"queueDepth"`
	InFlight    int            `json:"inFlight"`
	Requeued    int            `json:"requeued"`
	Workers     []WorkerJSON   `json:"workers"`
	Outcomes    map[string]int `json:"outcomes"`
	ElapsedSec  float64        `json:"elapsedSec"`
	ExpsPerSec  float64        `json:"expsPerSec"`
	WindowInsts uint64         `json:"windowInsts"`
}

// WorkerJSON is a WorkerStat with a JSON-friendly liveness age.
type WorkerJSON struct {
	Name        string  `json:"name"`
	Done        int     `json:"done"`
	LastSeenSec float64 `json:"lastSeenSec"` // seconds since last message
}

// Status reads the live campaign state. Safe to call from any goroutine
// while the master serves workers.
func (m *Master) Status() MasterStatus {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MasterStatus{
		Workload:    m.cfg.Workload,
		Total:       m.want,
		Done:        len(m.results),
		QueueDepth:  len(m.pending),
		Requeued:    m.requeued,
		Outcomes:    make(map[string]int),
		ElapsedSec:  now.Sub(m.start).Seconds(),
		WindowInsts: m.window,
	}
	for _, exps := range m.flight {
		st.InFlight += len(exps)
	}
	for _, r := range m.results {
		st.Outcomes[r.Outcome.String()]++
	}
	if st.ElapsedSec > 0 {
		st.ExpsPerSec = float64(st.Done) / st.ElapsedSec
	}
	st.Workers = make([]WorkerJSON, 0, len(m.workers))
	for _, ws := range m.workers {
		st.Workers = append(st.Workers, WorkerJSON{
			Name: ws.Name, Done: ws.Done,
			LastSeenSec: now.Sub(ws.LastSeen).Seconds(),
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Name < st.Workers[j].Name })
	return st
}

// Workers returns a snapshot of the connected workers' liveness stats,
// sorted by name.
func (m *Master) Workers() []WorkerStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerStat, 0, len(m.workers))
	for _, ws := range m.workers {
		out = append(out, *ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// accept serves worker connections until the listener closes.
func (m *Master) accept() {
	defer m.wg.Done()
	var id int
	for {
		raw, err := m.ln.Accept()
		if err != nil {
			return
		}
		id++
		name := fmt.Sprintf("conn%d-%s", id, raw.RemoteAddr())
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.serve(name, newConn(raw))
		}()
	}
}

// serve runs the master side of one worker connection.
func (m *Master) serve(name string, c *conn) {
	defer c.close()
	defer m.requeue(name)
	defer m.dropWorker(name)

	hello, err := c.recv()
	if err != nil || hello.Type != MsgHello {
		return
	}
	m.noteWorker(name, hello.WorkerName, 0)
	welcome := Message{
		Type:        MsgWelcome,
		Workload:    m.cfg.Workload,
		Scale:       int(m.cfg.Scale),
		Checkpoint:  m.ckpt,
		WindowInsts: m.window,
		Model:       string(m.cfg.Model),
		MaxInsts:    m.maxInsts,
		SpanTrace:   m.cfg.Spans != nil,
		Flight:      m.cfg.Flight,
	}
	if err := c.send(welcome); err != nil {
		return
	}
	for {
		msg, err := c.recv()
		if err != nil {
			return
		}
		switch msg.Type {
		case MsgFetch:
			exp, ctx, ok := m.take(name)
			if !ok {
				_ = c.send(Message{Type: MsgDone})
				return
			}
			out := Message{Type: MsgExperiment, Experiment: &exp}
			if ctx.Valid() {
				out.Trace = &ctx
			}
			if err := c.send(out); err != nil {
				return
			}
		case MsgResult:
			if msg.Result != nil {
				m.complete(name, *msg.Result, msg.Spans)
			}
		case MsgHeartbeat:
			m.heartbeatsC.Inc()
			m.noteWorker(name, msg.WorkerName, msg.Completed)
		default:
			_ = c.send(Message{Type: MsgError, Error: "unexpected " + msg.Type})
			return
		}
	}
}

// noteWorker refreshes a connection's liveness record.
func (m *Master) noteWorker(conn, reported string, done int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws := m.workers[conn]
	if ws == nil {
		ws = &WorkerStat{Name: conn}
		m.workers[conn] = ws
	}
	if reported != "" {
		ws.Name = reported
	}
	ws.LastSeen = time.Now()
	if done > ws.Done {
		ws.Done = done
	}
}

// dropWorker removes a disconnected worker's liveness record.
func (m *Master) dropWorker(conn string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.workers, conn)
}

// take pops one pending experiment and records the assignment. With
// span tracing on it also roots the experiment's trace — the master
// owns the root so the trace exists even if the worker dies — and
// returns the context the worker's spans should parent under.
func (m *Master) take(worker string) (campaign.Experiment, obs.SpanContext, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining || len(m.pending) == 0 {
		return campaign.Experiment{}, obs.SpanContext{}, false
	}
	exp := m.pending[0]
	m.pending = m.pending[1:]
	m.flight[worker] = append(m.flight[worker], exp)
	var ctx obs.SpanContext
	if m.cfg.Spans != nil {
		sp := m.cfg.Spans.StartRoot("experiment")
		workerName := worker
		if ws := m.workers[worker]; ws != nil && ws.Name != "" {
			workerName = ws.Name
		}
		sp.SetTrack(workerName)
		sp.SetAttr("exp_id", exp.ID)
		sp.SetAttr("workload", m.cfg.Workload)
		sp.SetAttr("worker", workerName)
		if len(exp.Faults) > 0 {
			sp.SetAttr("fault", exp.Faults[0].String())
		}
		if prev := m.retryOf[exp.ID]; prev != "" {
			sp.SetAttr("retry_of", prev)
			delete(m.retryOf, exp.ID)
		}
		m.expSpans[exp.ID] = &masterExp{span: sp, sentNS: time.Now().UnixNano()}
		ctx = sp.Context()
	}
	return exp, ctx, true
}

// complete records a result and clears the assignment. Worker-side
// spans (if any) are stitched under the master's experiment span with
// an NTP-style clock-skew estimate, so one /trace/{id} lookup shows
// the whole submit-to-verdict story even though the phases ran on
// another machine's clock.
func (m *Master) complete(worker string, r campaign.Result, spans []obs.SpanRecord) {
	recvNS := time.Now().UnixNano()
	m.mu.Lock()
	defer m.mu.Unlock()
	assigned := m.flight[worker]
	for i, e := range assigned {
		if e.ID == r.ID {
			m.flight[worker] = append(assigned[:i], assigned[i+1:]...)
			break
		}
	}
	if r.Worker == "" {
		if ws := m.workers[worker]; ws != nil && ws.Name != "" {
			r.Worker = ws.Name
		} else {
			r.Worker = worker
		}
	}
	if me := m.expSpans[r.ID]; me != nil {
		delete(m.expSpans, r.ID)
		sp := me.span
		if len(spans) > 0 {
			// The worker's root span ("worker") parents directly under
			// the master span; its endpoints, against our send/receive
			// times, give the classic two-sample offset estimate.
			rootID := sp.Context().SpanID
			for i := range spans {
				if spans[i].ParentID == rootID && spans[i].EndNS > 0 {
					skew := ((me.sentNS - spans[i].StartNS) + (recvNS - spans[i].EndNS)) / 2
					sp.SetAttr("clock_skew_ns", skew)
					break
				}
			}
			m.cfg.Spans.ImportSpans(spans)
		}
		sp.SetAttr("worker", r.Worker)
		sp.SetAttr("outcome", r.Outcome.String())
		sp.SetAttr("fired", r.Fired)
		sp.SetTicks(0, r.Ticks)
		if r.Outcome == campaign.OutcomeCrashed {
			sp.SetStatus("crashed: " + r.CrashCause)
		}
		if r.Outcome == campaign.OutcomeCrashed || r.Outcome == campaign.OutcomeSDC {
			sp.ForceKeep()
		}
		sp.End()
	}
	if _, dup := m.results[r.ID]; !dup {
		m.results[r.ID] = r
		if !m.cfg.Quiet && len(m.results)%50 == 0 {
			elapsed := time.Since(m.start).Seconds()
			rate := 0.0
			if elapsed > 0 {
				rate = float64(len(m.results)) / elapsed
			}
			inflight := 0
			for _, exps := range m.flight {
				inflight += len(exps)
			}
			log.Printf("now: %d/%d experiments done (%.1f exp/s, %d queued, %d in flight, %d workers)",
				len(m.results), m.want, rate, len(m.pending), inflight, len(m.workers))
		}
		if len(m.results) == m.want {
			close(m.doneCh)
		}
	}
}

// requeue returns a dead worker's in-flight experiments to the queue.
// Their half-built traces are abandoned (the worker can no longer ship
// its spans) and remembered so the retry's fresh span can say what it
// replaces — exactly one span tree per experiment survives.
func (m *Master) requeue(worker string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lost := m.flight[worker]; len(lost) > 0 {
		for _, e := range lost {
			if me := m.expSpans[e.ID]; me != nil {
				delete(m.expSpans, e.ID)
				m.retryOf[e.ID] = me.span.Context().TraceID
				m.cfg.Spans.Abandon(me.span.Context().TraceID)
			}
		}
		m.pending = append(m.pending, lost...)
		delete(m.flight, worker)
		m.requeued += len(lost)
		m.requeuedC.Add(uint64(len(lost)))
		if !m.cfg.Quiet {
			log.Printf("now: worker %s died, requeued %d experiment(s)", worker, len(lost))
		}
	}
}

// Wait blocks until every experiment has a result, then returns them
// ordered by ID. It closes the listener and briefly drains the serving
// goroutines so in-flight "done" replies reach their workers before the
// master process exits (bounded: a worker that connects and never
// fetches must not wedge shutdown).
func (m *Master) Wait() []campaign.Result {
	<-m.doneCh
	_ = m.ln.Close()
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]campaign.Result, 0, len(m.results))
	for i := 0; i < m.want; i++ {
		if r, ok := m.results[i]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Shutdown drains the master gracefully: no experiment is handed out
// after the call (workers fetching get "done"), in-flight experiments
// are given up to deadline to report their results, and the results
// collected so far are returned ordered by ID. The listener is closed
// on the way out, so the master is finished after Shutdown returns —
// the SIGINT/SIGTERM path of the master CLI.
func (m *Master) Shutdown(deadline time.Duration) []campaign.Result {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()

	limit := time.Now().Add(deadline)
	for time.Now().Before(limit) {
		m.mu.Lock()
		inflight := 0
		for _, exps := range m.flight {
			inflight += len(exps)
		}
		m.mu.Unlock()
		if inflight == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	_ = m.ln.Close()
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]campaign.Result, 0, len(m.results))
	for i := 0; i < m.want; i++ {
		if r, ok := m.results[i]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Close shuts the master down without waiting for completion.
func (m *Master) Close() {
	_ = m.ln.Close()
}
