package serv

// Service is the campaign server: a durable, multi-tenant scheduler that
// accepts campaign specs over HTTP, persists every state transition to
// the journal, executes experiments on per-campaign campaign.Pools under
// a global slot budget and on NoW workers via the now.ExpSource bridge,
// and streams progress to any number of watchers. It is the only
// campaign host: gemfi campaign runs a local campaign on an in-process
// service, and gemfi now master is that service with no local slots.
//
// A local slot runs one pool group: a whole trigger walk on a fork
// campaign, one experiment otherwise. NoW workers take single
// experiments. Fair sharing is smooth weighted round-robin over
// campaigns that have both pending work and an idle runner: each
// dispatch round every runnable campaign gains its weight, the largest
// accumulator wins the slot and pays the total back. Interleaving is
// proportional to weight even in short windows, so one tenant's
// 10k-experiment campaign cannot starve another's smoke test.

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/now"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/httpserv"
	"repro/internal/prof"
	"repro/internal/taint"
	"repro/internal/workloads"
)

// Config parameterizes a Service.
type Config struct {
	// Dir is the journal directory (required).
	Dir string
	// Slots bounds concurrent local group executions across all
	// campaigns (default 4), and so each campaign's pool size. A negative
	// value runs nothing locally: NoW workers execute every experiment,
	// as the paper's master machine only held the checkpoint and the
	// queue.
	Slots int
	// Metrics receives service telemetry (nil disables).
	Metrics *obs.Registry
	// Spans, when set, turns on end-to-end span tracing: every
	// experiment — local or on a NoW worker — becomes one trace rooted
	// at the service (campaign/tenant/batch attributes), with the
	// runner's phase spans (and a remote worker's shipped spans)
	// stitched underneath. Served live via /trace/{id} and /traces.
	// Nil disables at no cost.
	Spans *obs.SpanRecorder
}

// Service hosts campaigns. Lock order: a Campaign's mu may be held when
// taking s.mu (the journal/mirror path), never the reverse — anything
// holding s.mu must release it before touching a Campaign's lock.
type Service struct {
	cfg Config
	j   *journal

	mu sync.Mutex
	// st is the durable mirror, advanced with every append. Its Order is
	// the campaigns' submission order, and each of its records is the
	// ledger of the Campaign with that ID.
	st    *journalState
	camps map[string]*Campaign
	// draining is set when Shutdown (or Close) begins: nothing new is
	// submitted, dispatched or handed to a worker. closed is set once the
	// journal is closed; until then in-flight results are still journaled.
	draining bool
	closed   bool

	// roots holds the prepared roots identical submissions share.
	roots *rootCache

	slots chan struct{} // global local-execution budget (semaphore)
	kickC chan struct{}
	stopC chan struct{}

	// Span bookkeeping for in-flight experiments (nil-map free when
	// tracing is off). spanMu is leaf-level: taken with c.mu or s.mu
	// held, never the reverse.
	spanMu   sync.Mutex
	expSpans map[expKey]*servExp
	retryOf  map[expKey]string

	submittedC *obs.Counter
	resultsC   *obs.Counter
	batchesC   *obs.Counter
	resumedC   *obs.Counter

	// NoW worker telemetry: open sessions, experiments requeued by a
	// worker's death, and liveness messages received.
	nowWorkers    atomic.Int64
	nowRequeuedC  *obs.Counter
	nowHeartbeatC *obs.Counter
}

// New opens (or creates) the journal in cfg.Dir, replays it, resumes
// every unfinished campaign, and starts the dispatcher.
func New(cfg Config) (*Service, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serv: Config.Dir is required")
	}
	if cfg.Slots == 0 {
		cfg.Slots = 4
	}
	j, st, err := openJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:      cfg,
		j:        j,
		st:       st,
		camps:    make(map[string]*Campaign),
		slots:    make(chan struct{}, max(cfg.Slots, 0)),
		kickC:    make(chan struct{}, 1),
		stopC:    make(chan struct{}),
		expSpans: make(map[expKey]*servExp),
		retryOf:  make(map[expKey]string),
	}
	s.registerMetrics()
	s.roots = newRootCache(cfg.Metrics)
	if cfg.Spans != nil {
		cfg.Spans.AttachMetrics(cfg.Metrics)
	}

	// Resume: rebuild every journaled campaign. Finished ones are cheap
	// (state only — no golden run); unfinished ones relaunch through the
	// same prepare path a fresh submission takes, on their journaled
	// ledger, so nothing reruns or double-counts.
	for _, id := range st.Order {
		c := s.adopt(id)
		if c.led.Done {
			s.restoreFinished(c)
			continue
		}
		s.resumedC.Inc()
		go s.launch(c)
	}
	go s.dispatch()
	return s, nil
}

func (s *Service) registerMetrics() {
	r := s.cfg.Metrics
	s.submittedC = r.Counter("serv.campaigns_submitted")
	s.resultsC = r.Counter("serv.results_total")
	s.batchesC = r.Counter("serv.batches_planned")
	s.resumedC = r.Counter("serv.campaigns_resumed")
	s.nowRequeuedC = r.Counter("serv.now.requeued")
	s.nowHeartbeatC = r.Counter("serv.now.heartbeats")
	if r == nil {
		return
	}
	r.RegisterFunc("serv.slots_busy", func() float64 {
		return float64(len(s.slots))
	})
	r.RegisterFunc("serv.now.workers", func() float64 {
		return float64(s.nowWorkers.Load())
	})
	r.RegisterFunc("serv.campaigns_active", func() float64 {
		n := 0
		for _, st := range s.Campaigns() {
			if st.Phase == PhaseRunning || st.Phase == PhasePreparing {
				n++
			}
		}
		return float64(n)
	})
}

// adopt hosts the journaled campaign id, whose ledger is already in the
// mirror. Caller holds s.mu, or is New before the service is shared.
func (s *Service) adopt(id string) *Campaign {
	c := newCampaign(id, s.st.Camps[id])
	c.spans = s.cfg.Spans
	c.roots = s.roots
	s.camps[id] = c
	return c
}

// restoreFinished rebuilds a done campaign's read-only state (status,
// results, report) without the golden run or a runner pool.
func (s *Service) restoreFinished(c *Campaign) {
	c.mu.Lock()
	if c.led.Window > 0 {
		c.sampler = newSampler(&c.Spec, c.led.Window)
		c.sampler.restore(c.led)
	}
	c.phase = PhaseDone
	c.finishLocked()
	c.mu.Unlock()
}

// appendApply journals one record and folds it into the durable mirror,
// compacting when the journal says a compaction is due. Safe to call
// while holding a Campaign's lock (s.mu is taken after c.mu by design);
// for a record about a hosted campaign the caller must hold its lock,
// because the mirror record it changes is that campaign's ledger.
func (s *Service) appendApply(r record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("serv: service closed")
	}
	due, err := s.j.append(r)
	if err != nil {
		return err
	}
	s.st.apply(r)
	if due {
		return s.j.compact(s.st)
	}
	return nil
}

// Submit validates a spec, journals it, and launches its campaign.
// Returns the assigned campaign ID.
func (s *Service) Submit(spec CampaignSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	if _, err := workloads.ByName(spec.Workload, workloads.ScaleTest); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", fmt.Errorf("serv: service closed")
	}
	// IDs count submissions; the loop only matters for a journal whose IDs
	// do not (hand-edited or damaged).
	var id string
	for n := len(s.st.Order) + 1; id == "" || s.st.Camps[id] != nil; n++ {
		id = fmt.Sprintf("c%04d", n)
	}
	rec := record{T: recSpec, Campaign: id, Spec: &spec}
	if _, err := s.j.append(rec); err != nil {
		s.mu.Unlock()
		return "", err
	}
	s.st.apply(rec)
	c := s.adopt(id)
	s.mu.Unlock()
	s.submittedC.Inc()
	go s.launch(c)
	return id, nil
}

// launch takes a campaign from submitted (or journal-resumed, with part
// of its ledger already journaled) to running: golden run, sampler,
// first batch.
func (s *Service) launch(c *Campaign) {
	window, err := c.prepare(s.cfg.Slots)
	if err != nil {
		c.fail(err)
		return
	}
	c.mu.Lock()
	if c.led.Window == 0 {
		if err := s.appendApply(record{T: recWindow, Campaign: c.ID, Window: window}); err != nil {
			c.mu.Unlock()
			c.fail(err)
			return
		}
	}
	c.sampler = newSampler(&c.Spec, window)
	c.sampler.restore(c.led)
	var todo []campaign.Experiment
	for _, e := range c.led.Planned {
		if _, done := c.led.Results[e.ID]; !done {
			todo = append(todo, e)
		}
	}
	c.pending = c.pool.Plan(todo)
	if len(c.pending) == 0 {
		if err := s.planBatchLocked(c); err != nil {
			c.mu.Unlock()
			c.fail(err)
			return
		}
	}
	if len(c.pending) == 0 && len(c.inflight) == 0 {
		// Budget already spent (a resumed campaign whose last results were
		// journaled but whose done record was lost): finish now.
		s.finishLocked(c)
		c.mu.Unlock()
		return
	}
	c.phase = PhaseRunning
	c.mu.Unlock()
	c.broadcastStatus()
	s.kick()
}

// planBatchLocked asks the campaign's sampler for the next batch and
// journals it before exposing it to the scheduler. Caller holds c.mu.
// A nil-batch return with no error means the budget is spent.
func (s *Service) planBatchLocked(c *Campaign) error {
	exps := c.sampler.nextBatch(len(c.led.Planned) + 1)
	if exps == nil {
		return nil
	}
	rec := record{T: recExps, Campaign: c.ID, Batch: c.sampler.batches, Exps: exps}
	if err := s.appendApply(rec); err != nil {
		return err
	}
	c.pending = append(c.pending, c.pool.Plan(exps)...)
	if c.expBatch == nil {
		c.expBatch = make(map[int]int)
	}
	for _, e := range exps {
		c.expBatch[e.ID] = rec.Batch
	}
	s.batchesC.Inc()
	return nil
}

// finishLocked journals the done record and closes out the campaign.
// Caller holds c.mu.
func (s *Service) finishLocked(c *Campaign) {
	_ = s.appendApply(record{T: recDone, Campaign: c.ID})
	c.phase = PhaseDone
	c.finishLocked()
}

// expKey identifies one in-flight experiment across campaigns.
type expKey struct {
	camp string
	id   int
}

// servExp is the service's side of one in-flight traced experiment:
// the open root span plus the dispatch wall-clock (for the NTP-style
// skew estimate when a remote worker's spans come back).
type servExp struct {
	span   *obs.Span
	sentNS int64
}

// startExpSpan roots one experiment's trace at the service, starting at
// start — the root exists even if the executor dies — and returns the
// context runner or worker spans parent under. Zero context when tracing
// is off.
func (s *Service) startExpSpan(c *Campaign, exp campaign.Experiment, worker string, start time.Time) obs.SpanContext {
	if s.cfg.Spans == nil {
		return obs.SpanContext{}
	}
	c.mu.Lock()
	batch := c.expBatch[exp.ID]
	c.mu.Unlock()
	sp := s.cfg.Spans.StartRoot("experiment")
	sp.SetStart(start)
	sp.SetTrack(worker)
	sp.SetAttr("campaign", c.ID)
	sp.SetAttr("tenant", c.Spec.tenant())
	sp.SetAttr("workload", c.Spec.Workload)
	sp.SetAttr("exp_id", exp.ID)
	sp.SetAttr("worker", worker)
	if batch > 0 {
		sp.SetAttr("batch", batch)
	}
	if len(exp.Faults) > 0 {
		sp.SetAttr("fault", exp.Faults[0].String())
	}
	key := expKey{c.ID, exp.ID}
	s.spanMu.Lock()
	if prev := s.retryOf[key]; prev != "" {
		sp.SetAttr("retry_of", prev)
		delete(s.retryOf, key)
	}
	s.expSpans[key] = &servExp{span: sp, sentNS: time.Now().UnixNano()}
	s.spanMu.Unlock()
	return sp.Context()
}

// finishExpSpan ends an experiment's service-side root: remote span
// records (if any) are stitched underneath with a clock-skew estimate,
// the verdict lands as attributes, and crashed/SDC traces are kept
// regardless of sampling. No-op when the experiment was never traced.
func (s *Service) finishExpSpan(c *Campaign, res campaign.Result, spans []obs.SpanRecord) {
	s.spanMu.Lock()
	se := s.expSpans[expKey{c.ID, res.ID}]
	delete(s.expSpans, expKey{c.ID, res.ID})
	s.spanMu.Unlock()
	if se == nil {
		return
	}
	sp := se.span
	if len(spans) > 0 {
		rootID := sp.Context().SpanID
		for i := range spans {
			if spans[i].ParentID == rootID && spans[i].EndNS > 0 {
				recvNS := time.Now().UnixNano()
				skew := ((se.sentNS - spans[i].StartNS) + (recvNS - spans[i].EndNS)) / 2
				sp.SetAttr("clock_skew_ns", skew)
				break
			}
		}
		s.cfg.Spans.ImportSpans(spans)
	}
	if res.Worker != "" {
		sp.SetAttr("worker", res.Worker)
	}
	sp.SetAttr("outcome", res.Outcome.String())
	sp.SetAttr("fired", res.Fired)
	sp.SetTicks(0, res.Ticks)
	if res.Outcome == campaign.OutcomeCrashed {
		sp.SetStatus("crashed: " + res.CrashCause)
	}
	if res.Outcome == campaign.OutcomeCrashed || res.Outcome == campaign.OutcomeSDC {
		sp.ForceKeep()
	}
	sp.End()
}

// abandonExpSpan drops an experiment's half-built trace (its executor
// died or its result was a duplicate) and, when remember is set, notes
// the abandoned trace ID so the retry's span can carry retry_of —
// exactly one span tree per experiment survives.
func (s *Service) abandonExpSpan(campID string, expID int, remember bool) {
	key := expKey{campID, expID}
	s.spanMu.Lock()
	se := s.expSpans[key]
	delete(s.expSpans, key)
	if se != nil && remember {
		s.retryOf[key] = se.span.Context().TraceID
	}
	s.spanMu.Unlock()
	if se != nil {
		s.cfg.Spans.Abandon(se.span.Context().TraceID)
	}
}

// complete folds one classified experiment into the campaign: dedupe,
// journal, metrics, sampler evidence, stream broadcast, and — when the
// batch has drained — the next batch or the finish line. The
// exactly-once point: a result is journaled and counted only if its ID
// was not already classified, so requeued or duplicated executions
// collapse to one.
func (s *Service) complete(c *Campaign, res campaign.Result, spans []obs.SpanRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.led.Results[res.ID]; dup {
		s.abandonExpSpan(c.ID, res.ID, false)
		return
	}
	// Journaling the result also folds it into the campaign's ledger.
	if err := s.appendApply(record{T: recResult, Campaign: c.ID, Result: &res}); err != nil {
		// Journal write failed (closed mid-shutdown, disk error): drop the
		// result rather than count something the ledger never saw.
		delete(c.inflight, res.ID)
		s.abandonExpSpan(c.ID, res.ID, false)
		return
	}
	s.finishExpSpan(c, res, spans)
	delete(c.inflight, res.ID)
	c.sampler.record(res)
	s.resultsC.Inc()
	s.observe(res)
	c.broadcastLocked(streamEvent{Type: "result", Result: &res})
	if len(c.pending) == 0 && len(c.inflight) == 0 {
		if err := s.planBatchLocked(c); err != nil {
			c.mu.Unlock()
			c.fail(err)
			c.mu.Lock()
			return
		}
		if len(c.pending) == 0 {
			s.finishLocked(c)
		}
	}
}

// observe feeds one journaled result into the campaign metrics: the
// per-outcome tallies, the completed count, and the experiment-duration
// and per-phase latency histograms, whose exemplars carry the result's
// trace ID so a fat bucket links to a concrete span tree.
func (s *Service) observe(res campaign.Result) {
	m := s.cfg.Metrics
	m.Counter("campaign.completed").Inc()
	m.Counter("campaign.outcome." + res.Outcome.String()).Inc()
	m.Histogram("campaign.exp_duration_us").ObserveEx(float64(res.WallNs)/1e3, res.TraceID)
	for name, ns := range res.PhaseNS {
		m.Histogram("campaign.phase."+name+"_us").ObserveEx(float64(ns)/1e3, res.TraceID)
	}
}

// kick wakes the dispatcher (coalescing).
func (s *Service) kick() {
	select {
	case s.kickC <- struct{}{}:
	default:
	}
}

// dispatch is the scheduler loop: on every wake it hands out as many
// (campaign, experiment, runner, slot) quadruples as it can.
func (s *Service) dispatch() {
	for {
		select {
		case <-s.stopC:
			return
		case <-s.kickC:
		}
		for s.dispatchOne() {
		}
	}
}

// dispatchOne picks the next campaign by smooth weighted round-robin
// among those with pending work and an idle runner, takes a global slot,
// and starts the campaign's next group on its pool. Returns false when
// nothing can start.
func (s *Service) dispatchOne() bool {
	select {
	case s.slots <- struct{}{}:
	default:
		return false // all slots busy; a completion will re-kick
	}
	if s.isDraining() {
		<-s.slots
		return false
	}
	s.mu.Lock()
	cands := s.campaignsLocked()
	s.mu.Unlock()

	// Smooth WRR (nginx variant): every runnable candidate gains its
	// weight; the largest accumulator wins and repays the round total.
	// wrrCur is touched only here, on the single dispatcher goroutine,
	// which is also every pool's only TryRun caller: an idle runner it
	// sees stays idle until it starts a group there.
	var pick *Campaign
	total := 0
	for _, c := range cands {
		c.mu.Lock()
		runnable := c.phase == PhaseRunning && len(c.pending) > 0 && c.pool.Idle() > 0
		c.mu.Unlock()
		if !runnable {
			continue
		}
		w := c.Spec.weight()
		total += w
		c.wrrCur += w
		if pick == nil || c.wrrCur > pick.wrrCur {
			pick = c
		}
	}
	if pick == nil {
		<-s.slots
		return false
	}
	pick.wrrCur -= total

	pick.mu.Lock()
	g, ok := pick.takeLocked(math.MaxInt)
	pool := pick.pool
	pick.mu.Unlock()
	if !ok {
		<-s.slots
		return false
	}
	// Each member's root span opens when the runner reaches it; once the
	// service drains, the group stops there and its unstarted members go
	// back to pending.
	member := func(exp campaign.Experiment, start time.Time) (obs.SpanContext, bool) {
		if s.isDraining() {
			return obs.SpanContext{}, false
		}
		return s.startExpSpan(pick, exp, "local", start), true
	}
	done := func(unstarted []campaign.Experiment) {
		pick.requeue(unstarted)
		<-s.slots
		s.kick()
	}
	if !pool.TryRun(g, member, func(res campaign.Result) { s.complete(pick, res, nil) }, done) {
		done(g.Exps) // unreachable while dispatch is the only caller
		return false
	}
	return true
}

// Campaign looks up a hosted campaign by ID.
func (s *Service) Campaign(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.camps[id]
	return c, ok
}

// campaignsLocked lists the hosted campaigns in submission order.
// Caller holds s.mu.
func (s *Service) campaignsLocked() []*Campaign {
	out := make([]*Campaign, len(s.st.Order))
	for i, id := range s.st.Order {
		out[i] = s.camps[id]
	}
	return out
}

// Campaigns lists every hosted campaign's status in submission order.
func (s *Service) Campaigns() []CampaignStatus {
	s.mu.Lock()
	camps := s.campaignsLocked()
	s.mu.Unlock()
	out := make([]CampaignStatus, len(camps))
	for i, c := range camps {
		out[i] = c.Status()
	}
	return out
}

// Wait blocks until the campaign finishes (done or failed) or the
// timeout elapses; reports whether it finished.
func (s *Service) Wait(id string, timeout time.Duration) bool {
	c, ok := s.Campaign(id)
	if !ok {
		return false
	}
	select {
	case <-c.ended:
		return true
	case <-time.After(timeout):
		return false
	}
}

// WaitPrepared blocks until the campaign has left the preparing phase —
// its golden run has produced the checkpoint NoW workers are welcomed
// with — or the timeout elapses; reports whether it has.
func (s *Service) WaitPrepared(id string, timeout time.Duration) bool {
	c, ok := s.Campaign(id)
	if !ok {
		return false
	}
	for deadline := time.Now().Add(timeout); ; time.Sleep(5 * time.Millisecond) {
		if c.Status().Phase != PhasePreparing {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// Shutdown drains gracefully: nothing new is dispatched or handed to a
// worker, experiments in flight locally or on NoW workers get up to the
// bound to report (their results are journaled), then the journal is
// fsynced and closed. Safe to call once.
func (s *Service) Shutdown(deadline time.Duration) error {
	if !s.startDrain() {
		return nil
	}
	end := time.Now().Add(deadline)
	for s.inflight() > 0 && time.Now().Before(end) {
		time.Sleep(10 * time.Millisecond)
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if err := s.j.sync(); err != nil {
		return err
	}
	return s.j.close()
}

// Close abandons the service without draining or fsync — the crash-test
// hook (per-record flushes are the only durability). In-flight
// experiment goroutines fail their journal appends and drop out.
func (s *Service) Close() {
	if !s.startDrain() {
		return
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	_ = s.j.close()
}

// isDraining reports whether Shutdown or Close has begun.
func (s *Service) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// startDrain stops submissions, dispatch and hand-outs to workers;
// false when Shutdown or Close already did.
func (s *Service) startDrain() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.draining = true
	close(s.stopC)
	return true
}

// inflight counts the experiments handed to a local runner or a NoW
// worker whose results have not come back (a local group's members count
// from its dispatch).
func (s *Service) inflight() int {
	s.mu.Lock()
	camps := s.campaignsLocked()
	s.mu.Unlock()
	n := 0
	for _, c := range camps {
		c.mu.Lock()
		n += len(c.inflight)
		c.mu.Unlock()
	}
	return n
}

// ---- NoW bridge: the service as an experiment source ----

// Open implements now.ExpSource: an arriving worker is assigned to the
// running campaign with the most pending work (ties to submission
// order). ok=false when nothing needs remote help.
func (s *Service) Open(workerName string) (now.Welcome, now.Session, bool) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return now.Welcome{}, nil, false
	}
	camps := s.campaignsLocked()
	s.mu.Unlock()

	var pick *Campaign
	var runner *campaign.Runner
	best := 0
	for _, c := range camps {
		c.mu.Lock()
		if n := c.pendingLocked(); c.phase == PhaseRunning && n > best {
			pick, runner, best = c, c.pool.Runner(), n
		}
		c.mu.Unlock()
	}
	if pick == nil {
		return now.Welcome{}, nil, false
	}
	// The checkpoint is serialized per session, not kept per campaign:
	// workers join rarely, and a campaign without workers never pays for
	// the bytes.
	var ckpt []byte
	if runner.Ckpt != nil {
		var err error
		if ckpt, err = runner.Ckpt.Bytes(); err != nil {
			return now.Welcome{}, nil, false
		}
	}
	scale, _ := pick.Spec.scale()
	wel := now.Welcome{
		Campaign:   pick.ID,
		Workload:   pick.Spec.Workload,
		Scale:      int(scale),
		Checkpoint: ckpt,
		Model:      string(runner.Cfg.Model),
		MaxInsts:   runner.Cfg.MaxInsts, // the watchdog the local runners use
		Fork:       pick.Spec.Fork,
		SpanTrace:  s.cfg.Spans != nil,
		Flight:     pick.Spec.Flight,
		Taint:      pick.Spec.Taint,
	}
	s.nowWorkers.Add(1)
	return wel, &servSession{s: s, c: pick, worker: workerName,
		taken: make(map[int]campaign.Experiment)}, true
}

// ServeWorkers serves the NoW worker protocol on ln until it closes.
func (s *Service) ServeWorkers(ln net.Listener) {
	go now.ServeSource(ln, s)
}

// servSession is one worker connection's campaign assignment.
type servSession struct {
	s      *Service
	c      *Campaign
	worker string

	mu    sync.Mutex
	taken map[int]campaign.Experiment
}

func (ss *servSession) Take() (campaign.Experiment, obs.SpanContext, bool) {
	if ss.s.isDraining() {
		return campaign.Experiment{}, obs.SpanContext{}, false
	}
	ss.c.mu.Lock()
	g, ok := ss.c.takeLocked(1)
	ss.c.mu.Unlock()
	if !ok {
		return campaign.Experiment{}, obs.SpanContext{}, false
	}
	exp := g.Exps[0]
	ss.mu.Lock()
	ss.taken[exp.ID] = exp
	ss.mu.Unlock()
	return exp, ss.s.startExpSpan(ss.c, exp, ss.worker, time.Now()), true
}

func (ss *servSession) Complete(res campaign.Result, spans []obs.SpanRecord) {
	ss.mu.Lock()
	delete(ss.taken, res.ID)
	ss.mu.Unlock()
	ss.s.complete(ss.c, res, spans)
	ss.s.kick()
}

func (ss *servSession) Heartbeat() { ss.s.nowHeartbeatC.Inc() }

// Close requeues whatever the dead worker took but never finished; the
// results ledger guarantees anything it did finish counts exactly once.
// The orphaned traces are abandoned and remembered so the retries'
// fresh spans can name what they replace.
func (ss *servSession) Close() {
	ss.s.nowWorkers.Add(-1)
	ss.mu.Lock()
	exps := make([]campaign.Experiment, 0, len(ss.taken))
	for _, e := range ss.taken {
		exps = append(exps, e)
	}
	ss.taken = make(map[int]campaign.Experiment)
	ss.mu.Unlock()
	if len(exps) > 0 {
		for _, e := range exps {
			ss.s.abandonExpSpan(ss.c.ID, e.ID, true)
		}
		ss.c.requeue(exps)
		ss.s.nowRequeuedC.Add(uint64(len(exps)))
		ss.s.kick()
	}
}

// ---- HTTP API ----

// Postmortem looks up one flight-recorder dump across every hosted
// campaign. id is the experiment's span trace ID (the join key Results
// and /traces expose) or the explicit "<campaign>/<expID>" form. Dumps
// live on journaled results, so they survive restarts like everything
// else in the ledger.
func (s *Service) Postmortem(id string) (*flight.Postmortem, bool) {
	s.mu.Lock()
	camps := s.campaignsLocked()
	s.mu.Unlock()
	var campID string
	expID := -1
	if i := strings.IndexByte(id, '/'); i > 0 {
		if n, err := strconv.Atoi(id[i+1:]); err == nil {
			campID, expID = id[:i], n
		}
	}
	for _, c := range camps {
		c.mu.Lock()
		if expID >= 0 {
			if c.ID == campID {
				if res, ok := c.led.Results[expID]; ok && res.Postmortem != nil {
					c.mu.Unlock()
					return res.Postmortem, true
				}
			}
		} else {
			for _, res := range c.led.Results {
				if res.Postmortem != nil && res.TraceID == id {
					c.mu.Unlock()
					return res.Postmortem, true
				}
			}
		}
		c.mu.Unlock()
	}
	return nil, false
}

// Handler returns the service's HTTP surface: the campaign API plus the
// standard observability endpoints (with per-campaign keying wired).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/campaigns", s.handleCampaigns)
	mux.HandleFunc("/campaigns/", s.handleCampaign)
	mux.Handle("/", httpserv.Handler(httpserv.Config{
		Metrics: s.cfg.Metrics,
		Spans:   s.cfg.Spans,
		Status:  func() any { return s.Campaigns() },
		StatusFor: func(id string) (any, bool) {
			c, ok := s.Campaign(id)
			if !ok {
				return nil, false
			}
			return c.Status(), true
		},
		ProfileFor: func(id string) (*prof.Profile, bool) {
			c, ok := s.Campaign(id)
			if !ok {
				return nil, false
			}
			return c.Profile(), true
		},
		TaintFor: func(id string) (*taint.PropReport, bool) {
			c, ok := s.Campaign(id)
			if !ok {
				return nil, false
			}
			return c.TaintReport(), true
		},
		Postmortem: s.Postmortem,
	}))
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// handleCampaigns serves POST /campaigns (submit) and GET /campaigns
// (list).
func (s *Service) handleCampaigns(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodPost:
		var spec CampaignSpec
		if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad spec: %w", err))
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": id})
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.Campaigns())
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleCampaign serves GET /campaigns/{id}[/results|/report|/stream].
func (s *Service) handleCampaign(w http.ResponseWriter, req *http.Request) {
	rest := strings.TrimPrefix(req.URL.Path, "/campaigns/")
	id, sub, _ := strings.Cut(rest, "/")
	c, ok := s.Campaign(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", id))
		return
	}
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch sub {
	case "":
		writeJSON(w, http.StatusOK, c.Status())
	case "results":
		writeJSON(w, http.StatusOK, c.Results())
	case "report":
		writeJSON(w, http.StatusOK, c.VulnReport())
	case "stream":
		s.handleStream(w, req, c)
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown endpoint %q", sub))
	}
}

// handleStream serves one SSE watcher: the full result history so far,
// then live results as they classify, then a terminal done event.
func (s *Service) handleStream(w http.ResponseWriter, req *http.Request, c *Campaign) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	q, cancel := c.subscribe()
	defer cancel()
	for {
		evs, closed := q.take()
		for _, ev := range evs {
			var payload any
			switch {
			case ev.Result != nil:
				payload = ev.Result
			case ev.Status != nil:
				payload = ev.Status
			default:
				payload = struct{}{}
			}
			b, err := json.Marshal(payload)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b)
			if ev.Type == "done" {
				fl.Flush()
				return
			}
		}
		fl.Flush()
		if closed {
			return
		}
		select {
		case <-req.Context().Done():
			return
		case <-q.wake:
		}
	}
}

// Serve starts an HTTP server for the service API on addr; returns the
// bound server (Close it to stop).
func (s *Service) Serve(addr string) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln, nil
}
