package serv

// One hosted campaign: its spec, its durable ledger (planned experiments,
// results), its runner pool, its sampler, and its stream subscribers.
// The Service's scheduler moves experiments from pending to in-flight to
// results; every transition that matters for resumption is journaled by
// the Service before the in-memory state advances.
//
// What a campaign retains depends on its phase. A live one holds its
// campaign.Pool (simulators, decode caches, translator, fork snapshots)
// and its ledger. A finished one holds only its ledger, the merged
// profile, the freshest taint report and the fork accounting:
// finishLocked releases the pool.

import (
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/taint"
	"repro/internal/workloads"
)

// CampaignSpec is what a client POSTs to /campaigns.
type CampaignSpec struct {
	// Name is an optional human label; Tenant is the fair-share account
	// (empty = "default"); Weight biases the round-robin (default 1).
	Name   string `json:"name,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Weight int    `json:"weight,omitempty"`

	// Workload/Scale/Model/MaxInsts configure the simulators.
	Workload string `json:"workload"`
	Scale    string `json:"scale,omitempty"` // test|small|paper (default test)
	Model    string `json:"model,omitempty"` // atomic|timing|pipelined (default atomic)
	MaxInsts uint64 `json:"maxInsts,omitempty"`

	// Sampling selects the experiment planner: "uniform" (default, the
	// conformance referee) or "adaptive" (widest-CI stratified batches).
	// N is the total experiment budget; Confidence/Margin parameterize
	// the Leveugle sizing of adaptive strata; Strata and Batch shape the
	// adaptive loop. Seed makes every plan reproducible.
	Sampling   string  `json:"sampling,omitempty"`
	N          int     `json:"n"`
	Confidence float64 `json:"confidence,omitempty"`
	Margin     float64 `json:"margin,omitempty"`
	Strata     int     `json:"strata,omitempty"`
	Batch      int     `json:"batch,omitempty"`
	Seed       int64   `json:"seed,omitempty"`

	// Workers sizes this campaign's local runner pool (default 1), up to
	// the service's slot budget. Fork/Taint/Profile attach the fork
	// server, propagation tracker, and guest profiler.
	Workers int  `json:"workers,omitempty"`
	Fork    bool `json:"fork,omitempty"`
	Taint   bool `json:"taint,omitempty"`
	Profile bool `json:"profile,omitempty"`
	// Flight attaches a flight recorder to every runner, local or on a
	// NoW worker (via the welcome): crashed, SDC and reached-state
	// results carry a post-mortem dump, journaled with the result and
	// served via /postmortem/{id}.
	Flight bool `json:"flight,omitempty"`
}

func (s *CampaignSpec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

func (s *CampaignSpec) weight() int {
	if s.Weight <= 0 {
		return 1
	}
	return s.Weight
}

func (s *CampaignSpec) confidence() float64 {
	if s.Confidence <= 0 || s.Confidence >= 1 {
		return 0.95
	}
	return s.Confidence
}

func (s *CampaignSpec) margin() float64 {
	if s.Margin <= 0 || s.Margin >= 1 {
		return 0.05
	}
	return s.Margin
}

// workers is the local runner count: Workers (default 1), bounded by
// the slot budget, beyond which runners could never run at once.
func (s *CampaignSpec) workers(slots int) int {
	return min(max(s.Workers, 1), max(slots, 1))
}

func (s *CampaignSpec) scale() (workloads.Scale, error) {
	if s.Scale == "" {
		return workloads.ScaleTest, nil
	}
	return workloads.ParseScale(s.Scale)
}

func (s *CampaignSpec) model() (sim.ModelKind, error) {
	if s.Model == "" {
		return sim.ModelAtomic, nil
	}
	return sim.ParseModel(s.Model)
}

// Campaign phases.
const (
	PhasePreparing = "preparing" // golden run / pool building
	PhaseRunning   = "running"
	PhaseDone      = "done"
	PhaseFailed    = "failed"
)

// Campaign is one hosted campaign's runtime state.
type Campaign struct {
	ID   string
	Spec CampaignSpec

	mu      sync.Mutex
	phase   string
	failErr string
	// led is the campaign's ledger — spec, window, plan and results. It is
	// the Service's journal-mirror record itself (journalState.Camps[ID]),
	// so every planned experiment and result is held once. It changes only
	// inside Service.appendApply, with both c.mu and the Service's lock
	// held; either lock is enough to read it.
	led     *persisted
	sampler *sampler
	// pending is the queue of planned, unstarted experiments in the units
	// the pool runs whole (trigger walks on a fork campaign).
	pending  []campaign.Group
	inflight map[int]campaign.Experiment
	expBatch map[int]int // experiment ID -> batch it was planned in
	started  time.Time

	// spans, when set (by the Service from its config), is attached to
	// the pool so local executions emit phase spans under the service's
	// experiment roots.
	spans *obs.SpanRecorder

	// pool runs the local experiments: built by prepare, handed groups
	// by the dispatcher, released by finishLocked.
	pool *campaign.Pool

	// profile, taintRep and forkStats are what the campaign reports once
	// the pool is gone, captured at finish.
	profile   *prof.Profile
	taintRep  *taint.PropReport
	forkStats campaign.ForkStats

	// wrrCur is the smooth-WRR accumulator; touched only by the single
	// dispatcher goroutine, so it needs no lock.
	wrrCur int

	// Stream subscribers: each gets every result exactly once plus a
	// terminal done event.
	subs map[*subscriber]struct{}
	// ended is closed once the campaign is done or failed.
	ended chan struct{}
}

// streamEvent is one SSE payload.
type streamEvent struct {
	Type   string           `json:"-"`
	Result *campaign.Result `json:"result,omitempty"`
	Status *CampaignStatus  `json:"status,omitempty"`
}

func newCampaign(id string, led *persisted) *Campaign {
	return &Campaign{
		ID:       id,
		Spec:     led.Spec,
		phase:    PhasePreparing,
		led:      led,
		inflight: make(map[int]campaign.Experiment),
		subs:     make(map[*subscriber]struct{}),
		ended:    make(chan struct{}),
		started:  time.Now(),
	}
}

// prepare builds the golden run and a pool of up to slots runners.
// Expensive (it runs the workload once); the Service calls it off the
// request path. The returned window is 0 only on error.
func (c *Campaign) prepare(slots int) (uint64, error) {
	scale, err := c.Spec.scale()
	if err != nil {
		return 0, err
	}
	w, err := workloads.ByName(c.Spec.Workload, scale)
	if err != nil {
		return 0, err
	}
	model, err := c.Spec.model()
	if err != nil {
		return 0, err
	}
	cfg := campaign.SimConfig(model, c.Spec.MaxInsts)
	cfg.EnableProfiler = c.Spec.Profile
	cfg.EnableTaint = c.Spec.Taint
	cfg.EnableFlight = c.Spec.Flight
	pool, err := campaign.NewPool(w, c.Spec.workers(slots), campaign.RunnerOptions{Cfg: &cfg})
	if err != nil {
		return 0, err
	}
	// Without local slots nothing forks here: workers build their own
	// fork servers from the welcome.
	if c.Spec.Fork && slots >= 0 {
		if err := pool.EnableFork(campaign.DefaultForkOptions()); err != nil {
			return 0, err
		}
	}
	if c.spans != nil {
		pool.AttachSpans(c.spans, c.ID+"/r")
	}
	c.mu.Lock()
	c.pool = pool
	c.mu.Unlock()
	return pool.Runner().WindowInsts, nil
}

// fail moves the campaign to the failed phase.
func (c *Campaign) fail(err error) {
	c.mu.Lock()
	c.phase = PhaseFailed
	c.failErr = err.Error()
	c.mu.Unlock()
	c.broadcastStatus()
}

// takeLocked pops up to n experiments of the next pending group into
// in-flight, less any already classified: a local slot takes a whole
// group, a NoW worker one experiment. Caller holds c.mu.
func (c *Campaign) takeLocked(n int) (campaign.Group, bool) {
	for len(c.pending) > 0 {
		head := &c.pending[0]
		g := *head
		g.Exps = head.Exps[:min(n, len(head.Exps))]
		if head.Exps = head.Exps[len(g.Exps):]; len(head.Exps) == 0 {
			c.pending = c.pending[1:]
		}
		var live []campaign.Experiment
		for _, exp := range g.Exps {
			if _, dup := c.led.Results[exp.ID]; !dup { // journal resume overlap
				c.inflight[exp.ID] = exp
				live = append(live, exp)
			}
		}
		if len(live) > 0 {
			g.Exps = live
			return g, true
		}
	}
	return campaign.Group{}, false
}

// pendingLocked counts the pending experiments. Caller holds c.mu.
func (c *Campaign) pendingLocked() int {
	n := 0
	for _, g := range c.pending {
		n += len(g.Exps)
	}
	return n
}

// requeue returns un-finished experiments to the head of the queue (a
// died NoW worker's assignments, or the members a draining walk never
// started).
func (c *Campaign) requeue(exps []campaign.Experiment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var live []campaign.Experiment
	for _, e := range exps {
		if _, done := c.led.Results[e.ID]; !done {
			delete(c.inflight, e.ID)
			live = append(live, e)
		}
	}
	if len(live) > 0 && c.pool != nil {
		c.pending = append(c.pool.Plan(live), c.pending...)
	}
}

// Profile merges the campaign's per-runner profiles (empty when
// profiling is off, nil before the pool is built).
func (c *Campaign) Profile() *prof.Profile { return fromPool(c, (*campaign.Pool).Profile, &c.profile) }

// TaintReport returns the campaign's freshest propagation report across
// its runners — the per-campaign selection the /taint endpoint keys on.
func (c *Campaign) TaintReport() *taint.PropReport {
	return fromPool(c, (*campaign.Pool).TaintReport, &c.taintRep)
}

// ForkStats returns the campaign's fork-server accounting (zero without
// a trunk).
func (c *Campaign) ForkStats() campaign.ForkStats {
	return fromPool(c, (*campaign.Pool).ForkStats, &c.forkStats)
}

// fromPool reads the live pool, or once the campaign has finished, what
// finishLocked captured from it in final.
func fromPool[T any](c *Campaign, live func(*campaign.Pool) T, final *T) T {
	c.mu.Lock()
	pool, v := c.pool, *final
	c.mu.Unlock()
	if pool == nil {
		return v
	}
	return live(pool)
}

// subscriber is one stream watcher's event queue. Broadcasts append to
// it and never block or drop, so a stalled watcher cannot stall the
// campaign, and a watcher slower than a burst of results still sees
// every one. A queue holds at most the campaign's results, which the
// ledger keeps anyway.
type subscriber struct {
	mu     sync.Mutex
	events []streamEvent
	closed bool
	wake   chan struct{} // holds a token while events or the close are unread
}

func newSubscriber() *subscriber { return &subscriber{wake: make(chan struct{}, 1)} }

// push queues an event.
func (q *subscriber) push(ev streamEvent) {
	q.mu.Lock()
	q.events = append(q.events, ev)
	q.mu.Unlock()
	q.poke()
}

// close marks the queue closed after the events already queued.
func (q *subscriber) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.poke()
}

// poke wakes the watcher.
func (q *subscriber) poke() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// take returns the queued events and whether the queue is closed after
// them.
func (q *subscriber) take() ([]streamEvent, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	evs := q.events
	q.events = nil
	return evs, q.closed
}

// subscribe registers a stream consumer primed with every existing
// result, so late watchers see the full history in order.
func (c *Campaign) subscribe() (*subscriber, func()) {
	q := newSubscriber()
	c.mu.Lock()
	defer c.mu.Unlock()
	backlog := c.resultsLocked()
	q.events = make([]streamEvent, 0, len(backlog)+1)
	for i := range backlog {
		q.events = append(q.events, streamEvent{Type: "result", Result: &backlog[i]})
	}
	if c.phase == PhaseDone || c.phase == PhaseFailed {
		st := c.statusLocked()
		q.push(streamEvent{Type: "done", Status: &st})
		q.close()
		return q, func() {}
	}
	c.subs[q] = struct{}{}
	return q, func() {
		c.mu.Lock()
		delete(c.subs, q)
		c.mu.Unlock()
	}
}

// broadcast sends an event to every subscriber.
func (c *Campaign) broadcast(ev streamEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broadcastLocked(ev)
}

func (c *Campaign) broadcastLocked(ev streamEvent) {
	for q := range c.subs {
		q.push(ev)
	}
}

// finishLocked runs whenever the campaign is done or failed, and is
// idempotent. It releases the pool — simulators, caches, fork snapshots
// and the checkpoint go with it — after capturing what the campaign
// reports from then on, drops the scheduler's bookkeeping, and closes
// every subscriber after a terminal event.
func (c *Campaign) finishLocked() {
	if c.pool != nil {
		c.profile = c.pool.Profile()
		c.taintRep = c.pool.TaintReport()
		c.forkStats = c.pool.ForkStats()
		c.pool = nil
	}
	c.pending, c.expBatch = nil, nil
	select {
	case <-c.ended:
	default:
		close(c.ended)
	}
	st := c.statusLocked()
	for q := range c.subs {
		q.push(streamEvent{Type: "done", Status: &st})
		q.close()
		delete(c.subs, q)
	}
}

func (c *Campaign) broadcastStatus() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase == PhaseDone || c.phase == PhaseFailed {
		c.finishLocked()
		return
	}
	st := c.statusLocked()
	c.broadcastLocked(streamEvent{Type: "status", Status: &st})
}

// CampaignStatus is the public point-in-time view of one campaign.
type CampaignStatus struct {
	ID          string          `json:"id"`
	Name        string          `json:"name,omitempty"`
	Tenant      string          `json:"tenant"`
	Workload    string          `json:"workload"`
	Sampling    string          `json:"sampling"`
	Phase       string          `json:"phase"`
	Error       string          `json:"error,omitempty"`
	Budget      int             `json:"budget"`
	Planned     int             `json:"planned"`
	Done        int             `json:"done"`
	InFlight    int             `json:"inFlight"`
	Pending     int             `json:"pending"`
	Batches     int             `json:"batches"`
	WindowInsts uint64          `json:"windowInsts,omitempty"`
	Outcomes    map[string]int  `json:"outcomes"`
	ElapsedSec  float64         `json:"elapsedSec"`
	Strata      []StratumStatus `json:"strata,omitempty"`
	AggP        float64         `json:"aggP"`
	AggCIWidth  float64         `json:"aggCIWidth"`
}

// Status reads the campaign's live state.
func (c *Campaign) Status() CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked()
}

func (c *Campaign) statusLocked() CampaignStatus {
	st := CampaignStatus{
		ID:          c.ID,
		Name:        c.Spec.Name,
		Tenant:      c.Spec.tenant(),
		Workload:    c.Spec.Workload,
		Sampling:    c.samplingMode(),
		Phase:       c.phase,
		Error:       c.failErr,
		Budget:      c.Spec.N,
		Planned:     len(c.led.Planned),
		Done:        len(c.led.Results),
		InFlight:    len(c.inflight),
		Pending:     c.pendingLocked(),
		Batches:     c.led.Batches,
		WindowInsts: c.led.Window,
		Outcomes:    make(map[string]int),
		ElapsedSec:  time.Since(c.started).Seconds(),
	}
	for _, r := range c.led.Results {
		st.Outcomes[r.Outcome.String()]++
	}
	if c.sampler != nil {
		st.Strata, st.AggP, st.AggCIWidth = c.sampler.status()
	}
	return st
}

func (c *Campaign) samplingMode() string {
	if c.Spec.Sampling == "" {
		return SampleUniform
	}
	return c.Spec.Sampling
}

// Results returns the classified results in planned order.
func (c *Campaign) Results() []campaign.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resultsLocked()
}

func (c *Campaign) resultsLocked() []campaign.Result {
	out := make([]campaign.Result, 0, len(c.led.Results))
	_ = c.led.eachResult(func(r *campaign.Result) error {
		out = append(out, *r)
		return nil
	})
	return out
}

// Report is the campaign's vulnerability report: the five-class tally
// with fractions, the stratified vulnerability estimate, and the
// per-stratum confidence table.
type Report struct {
	ID         string             `json:"id"`
	Workload   string             `json:"workload"`
	Sampling   string             `json:"sampling"`
	Total      int                `json:"total"`
	Outcomes   map[string]int     `json:"outcomes"`
	Fractions  map[string]float64 `json:"fractions"`
	AggP       float64            `json:"aggP"`
	AggCIWidth float64            `json:"aggCIWidth"`
	Confidence float64            `json:"confidence"`
	Strata     []StratumStatus    `json:"strata,omitempty"`
}

// VulnReport builds the live vulnerability report.
func (c *Campaign) VulnReport() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := Report{
		ID:         c.ID,
		Workload:   c.Spec.Workload,
		Sampling:   c.samplingMode(),
		Total:      len(c.led.Results),
		Outcomes:   make(map[string]int),
		Fractions:  make(map[string]float64),
		Confidence: c.Spec.confidence(),
	}
	tally := make(campaign.Tally)
	for _, r := range c.led.Results {
		tally.Add(r)
	}
	for _, o := range campaign.Outcomes() {
		if n := tally[o]; n > 0 {
			rep.Outcomes[o.String()] = n
		}
		rep.Fractions[o.String()] = tally.Fraction(o)
	}
	if c.sampler != nil {
		rep.Strata, rep.AggP, rep.AggCIWidth = c.sampler.status()
	}
	return rep
}
