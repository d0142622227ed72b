package serv

// One hosted campaign: its spec, its durable ledger (planned experiments,
// results), its runner pool, its sampler, and its stream subscribers.
// The Service's scheduler moves experiments from pending to in-flight to
// results; every transition that matters for resumption is journaled by
// the Service before the in-memory state advances.
//
// What a campaign retains depends on its phase. A live one holds its
// runner pool (simulators, decode caches, translator, fork snapshots)
// and its ledger. A finished one holds only its ledger, the merged
// profile and the freshest taint report: finishLocked releases the pool.

import (
	"fmt"
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

	// Workers bounds this campaign's local runner pool (default 1; the
	// global slot budget still applies). Fork/Taint/Profile attach the
	// fork server, propagation tracker, and guest profiler.
	Workers int  `json:"workers,omitempty"`
	Fork    bool `json:"fork,omitempty"`
	Taint   bool `json:"taint,omitempty"`
	Profile bool `json:"profile,omitempty"`
	// Flight attaches a flight recorder to every runner: crashed, SDC
	// and reached-state results carry a post-mortem dump (served via
	// /postmortem/{id}). Implied service-wide by serv.Config.Flight.
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

func (s *CampaignSpec) workers() int {
	if s.Workers <= 0 {
		return 1
	}
	if s.Workers > 8 {
		return 8
	}
	return s.Workers
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
	PhasePreparing = "preparing" // golden run / runner pool building
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
	led      *persisted
	sampler  *sampler
	pending  []campaign.Experiment
	inflight map[int]campaign.Experiment
	expBatch map[int]int // experiment ID -> batch it was planned in
	started  time.Time

	// spans, when set (by the Service from its config), is attached to
	// every pool runner so local executions emit phase spans under the
	// service's experiment roots.
	spans *obs.SpanRecorder

	// flight (set by the Service from its config) turns on flight
	// recording for this campaign's pool even when the spec did not ask.
	flight bool

	// Runner pool: built by prepare, borrowed by the scheduler, released
	// by finishLocked. free is buffered to the pool size so returns never
	// block.
	runners []*campaign.Runner
	free    chan *campaign.Runner

	// profile and taintRep are what /profile and /taint serve once the
	// pool is gone: the runners' merged profile and freshest report,
	// captured at finish.
	profile  *prof.Profile
	taintRep *taint.PropReport

	// wrrCur is the smooth-WRR accumulator; touched only by the single
	// dispatcher goroutine, so it needs no lock.
	wrrCur int

	// Stream subscribers: each gets every result exactly once plus a
	// terminal done event. Buffered; a stalled subscriber is dropped.
	subs map[chan streamEvent]struct{}
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
		subs:     make(map[chan streamEvent]struct{}),
		started:  time.Now(),
	}
}

// prepare builds the golden run and the runner pool. Expensive (it runs
// the workload once); the Service calls it off the request path. The
// returned window is 0 only on error.
func (c *Campaign) prepare() (uint64, error) {
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
	cfg.EnableFlight = c.Spec.Flight || c.flight
	first, err := campaign.NewRunner(w, campaign.RunnerOptions{Cfg: &cfg})
	if err != nil {
		return 0, err
	}
	if c.Spec.Fork {
		if err := first.EnableFork(campaign.DefaultForkOptions()); err != nil {
			return 0, err
		}
	}
	runners := []*campaign.Runner{first}
	for i := 1; i < c.Spec.workers(); i++ {
		r, err := first.Clone()
		if err != nil {
			return 0, err
		}
		runners = append(runners, r)
	}
	if c.spans != nil {
		for i, r := range runners {
			r.AttachSpans(c.spans, fmt.Sprintf("%s/r%d", c.ID, i+1))
		}
	}
	free := make(chan *campaign.Runner, len(runners))
	for _, r := range runners {
		free <- r
	}
	c.mu.Lock()
	c.runners = runners
	c.free = free
	c.mu.Unlock()
	return first.WindowInsts, nil
}

// fail moves the campaign to the failed phase.
func (c *Campaign) fail(err error) {
	c.mu.Lock()
	c.phase = PhaseFailed
	c.failErr = err.Error()
	c.mu.Unlock()
	c.broadcastStatus()
}

// borrowRunner takes an idle runner without blocking (nil when all are
// busy).
func (c *Campaign) borrowRunner() *campaign.Runner {
	c.mu.Lock()
	free := c.free
	c.mu.Unlock()
	if free == nil {
		return nil
	}
	select {
	case r := <-free:
		return r
	default:
		return nil
	}
}

func (c *Campaign) returnRunner(r *campaign.Runner) {
	c.mu.Lock()
	free := c.free
	c.mu.Unlock()
	if free != nil {
		free <- r
	}
}

// takeLocked pops one pending experiment into in-flight. Caller holds
// c.mu.
func (c *Campaign) takeLocked() (campaign.Experiment, bool) {
	for len(c.pending) > 0 {
		exp := c.pending[0]
		c.pending = c.pending[1:]
		if _, dup := c.led.Results[exp.ID]; dup {
			continue // already classified (journal resume overlap)
		}
		c.inflight[exp.ID] = exp
		return exp, true
	}
	return campaign.Experiment{}, false
}

// requeue returns un-finished experiments to the head of the queue (a
// died NoW worker's assignments).
func (c *Campaign) requeue(exps []campaign.Experiment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range exps {
		if _, done := c.led.Results[e.ID]; done {
			continue
		}
		delete(c.inflight, e.ID)
		c.pending = append([]campaign.Experiment{e}, c.pending...)
	}
}

// Profile merges the campaign's per-runner profiles (empty when
// profiling is off or the pool is not built yet). A finished campaign
// answers with the profile captured when its pool was released.
func (c *Campaign) Profile() *prof.Profile {
	c.mu.Lock()
	runners, final := c.runners, c.profile
	c.mu.Unlock()
	if final != nil {
		return final
	}
	return campaign.MergedProfile(runners)
}

// TaintReport returns the campaign's freshest propagation report across
// its runners — the per-campaign selection the /taint endpoint keys on.
// A finished campaign answers with the report captured at finish.
func (c *Campaign) TaintReport() *taint.PropReport {
	c.mu.Lock()
	runners, final := c.runners, c.taintRep
	c.mu.Unlock()
	if final != nil {
		return final
	}
	return campaign.FreshestTaintReport(runners)
}

// subscribe registers a stream consumer primed with every existing
// result, so late watchers see the full history in order.
func (c *Campaign) subscribe() (chan streamEvent, func()) {
	c.mu.Lock()
	backlog := c.resultsLocked()
	done := c.phase == PhaseDone || c.phase == PhaseFailed
	ch := make(chan streamEvent, 256+2*len(backlog))
	for i := range backlog {
		ch <- streamEvent{Type: "result", Result: &backlog[i]}
	}
	if done {
		st := c.statusLocked()
		ch <- streamEvent{Type: "done", Status: &st}
		close(ch)
		c.mu.Unlock()
		return ch, func() {}
	}
	c.subs[ch] = struct{}{}
	c.mu.Unlock()
	return ch, func() {
		c.mu.Lock()
		if _, ok := c.subs[ch]; ok {
			delete(c.subs, ch)
		}
		c.mu.Unlock()
	}
}

// broadcast sends an event to every subscriber, dropping ones whose
// buffers are full (a stalled client must not stall the campaign).
func (c *Campaign) broadcast(ev streamEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broadcastLocked(ev)
}

func (c *Campaign) broadcastLocked(ev streamEvent) {
	for ch := range c.subs {
		select {
		case ch <- ev:
		default:
			delete(c.subs, ch)
			close(ch)
		}
	}
}

// finishLocked runs whenever the campaign is done or failed, and is
// idempotent. It releases the runner pool — simulators, caches, fork
// snapshots and the checkpoint go with it — after capturing what
// /profile and /taint serve from then on, drops the scheduler's
// bookkeeping, and closes every subscriber after a terminal event.
func (c *Campaign) finishLocked() {
	if c.runners != nil {
		c.profile = campaign.MergedProfile(c.runners)
		c.taintRep = campaign.FreshestTaintReport(c.runners)
		c.runners, c.free = nil, nil
	}
	c.pending, c.expBatch = nil, nil
	st := c.statusLocked()
	for ch := range c.subs {
		select {
		case ch <- streamEvent{Type: "done", Status: &st}:
		default:
		}
		close(ch)
		delete(c.subs, ch)
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
		Pending:     len(c.pending),
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
