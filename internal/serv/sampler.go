package serv

// Sampling strategies for service-hosted campaigns. Both stratify the
// fault population by injection region — equal slices of the golden
// run's fault-injection window, the committed-instruction axis that
// per-PC profiler counts and taint verdicts attribute vulnerability to —
// and differ only in where the next batch goes:
//
//   - uniform: the conformance referee. All experiments are drawn in one
//     batch, uniformly over the full window, exactly the paper's §IV
//     methodology; the strata only account outcomes so adaptive runs
//     have per-stratum rates to converge against.
//   - adaptive: batches of experiments are allocated by
//     stats.AllocateWidest to the strata whose outcome-confidence
//     intervals are widest, each stratum's batch drawn uniformly inside
//     its own window slice. Per-stratum Leveugle sizing
//     (stats.StratifiedSizes) caps each stratum's useful sample, and the
//     campaign stops at its experiment budget.

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// Sampling modes.
const (
	SampleUniform  = "uniform"
	SampleAdaptive = "adaptive"
)

// sampler tracks a campaign's stratified outcome evidence and plans
// experiment batches. It is not safe for concurrent use; the owning
// Campaign serializes access under its own lock.
type sampler struct {
	mode       string
	window     uint64
	seed       int64
	confidence float64
	budget     int // total experiment budget
	batch      int // adaptive batch size

	bounds  [][2]uint64 // per-stratum inclusive injection-time slices
	strata  []stats.Stratum
	caps    []int64 // per-stratum Leveugle sample caps
	planned int
	batches int
}

// newSampler slices the injection window into nStrata equal regions.
// The stratum population is its slice width — the number of injectable
// instruction slots — which is what Leveugle sizing wants.
func newSampler(spec *CampaignSpec, window uint64) *sampler {
	n := spec.Strata
	if n <= 0 {
		n = 8
	}
	if uint64(n) > window {
		n = int(window)
		if n == 0 {
			n = 1
		}
	}
	s := &sampler{
		mode:       spec.Sampling,
		window:     window,
		seed:       spec.Seed,
		confidence: spec.confidence(),
		budget:     spec.N,
		batch:      spec.Batch,
	}
	if s.mode == "" {
		s.mode = SampleUniform
	}
	if s.batch <= 0 {
		s.batch = 32
	}
	step := window / uint64(n)
	for i := 0; i < n; i++ {
		lo := uint64(i)*step + 1
		hi := uint64(i+1) * step
		if i == n-1 {
			hi = window // last stratum absorbs the rounding remainder
		}
		s.bounds = append(s.bounds, [2]uint64{lo, hi})
		s.strata = append(s.strata, stats.Stratum{Pop: int64(hi - lo + 1)})
	}
	pops := make([]int64, len(s.strata))
	for i, st := range s.strata {
		pops[i] = st.Pop
	}
	s.caps = stats.StratifiedSizes(pops, s.confidence, spec.margin())
	return s
}

// restore replays a ledger's planned batches and accumulated results
// into the sampler (a fresh ledger has neither).
func (s *sampler) restore(led *persisted) {
	s.planned = len(led.Planned)
	s.batches = led.Batches
	for _, r := range led.Results {
		s.record(r)
	}
}

// stratumOf maps an injection time to its stratum index.
func (s *sampler) stratumOf(when uint64) int {
	for i, b := range s.bounds {
		if when >= b[0] && when <= b[1] {
			return i
		}
	}
	return len(s.bounds) - 1
}

// record folds one classified experiment into the stratified evidence.
// The outcome of interest — the "vulnerable" proportion each stratum's
// confidence interval is over — is a non-acceptable outcome: crash or
// silent data corruption.
func (s *sampler) record(r campaign.Result) {
	if r.Fault.Loc == 0 && r.Fault.When == 0 {
		return // no-fault experiment: no stratum
	}
	i := s.stratumOf(r.Fault.When)
	s.strata[i].N++
	if !r.Outcome.Acceptable() {
		s.strata[i].K++
	}
}

// nextBatch plans the next set of experiments, numbered from firstID.
// Returns nil when the campaign has spent its budget (or, adaptively,
// when every stratum is capped). The batch sequence number is
// s.batches after the call — the journal's exps record.
func (s *sampler) nextBatch(firstID int) []campaign.Experiment {
	remaining := s.budget - s.planned
	if remaining <= 0 {
		return nil
	}
	var exps []campaign.Experiment
	switch s.mode {
	case SampleAdaptive:
		n := s.batch
		if n > remaining {
			n = remaining
		}
		// Clamp each stratum to its Leveugle cap: beyond it the stratum's
		// interval is already inside the requested margin, so marginal
		// experiments belong elsewhere.
		capped := make([]stats.Stratum, len(s.strata))
		copy(capped, s.strata)
		for i := range capped {
			if s.caps[i] > 0 && s.caps[i] < capped[i].Pop {
				capped[i].Pop = s.caps[i]
			}
		}
		alloc := stats.AllocateWidest(capped, n, s.confidence)
		for i, k := range alloc {
			if k == 0 {
				continue
			}
			// Each stratum draws uniformly inside its own slice, with a
			// seed derived from (campaign seed, batch, stratum) so every
			// batch is reproducible and journal replay regenerates nothing.
			gc := campaign.GenConfig{
				WindowInsts: s.window,
				MinWhen:     s.bounds[i][0],
				MaxWhen:     s.bounds[i][1],
				Seed:        s.seed + int64(s.batches+1)*1_000_003 + int64(i)*7919,
			}
			for _, e := range campaign.GenerateUniform(k, gc) {
				e.ID = firstID + len(exps)
				exps = append(exps, e)
			}
		}
	default: // uniform referee: everything in one full-window batch
		exps = campaign.GenerateUniform(remaining, campaign.GenConfig{
			WindowInsts: s.window,
			Seed:        s.seed,
		})
		for i := range exps {
			exps[i].ID = firstID + i
		}
	}
	if len(exps) == 0 {
		return nil
	}
	s.planned += len(exps)
	s.batches++
	return exps
}

// StratumStatus is one stratum's public accounting, served in campaign
// status and vulnerability reports.
type StratumStatus struct {
	Lo         uint64  `json:"lo"`
	Hi         uint64  `json:"hi"`
	Population int64   `json:"population"`
	Sampled    int     `json:"sampled"`
	Vulnerable int     `json:"vulnerable"`
	P          float64 `json:"p"`
	CIWidth    float64 `json:"ciWidth"`
	LeveugleN  int64   `json:"leveugleN"`
}

// status renders the per-stratum table plus the population-weighted
// aggregate vulnerability estimate and its interval.
func (s *sampler) status() ([]StratumStatus, float64, float64) {
	out := make([]StratumStatus, len(s.strata))
	for i, st := range s.strata {
		out[i] = StratumStatus{
			Lo: s.bounds[i][0], Hi: s.bounds[i][1],
			Population: st.Pop, Sampled: st.N, Vulnerable: st.K,
			P: st.P(), CIWidth: st.CIWidth(s.confidence), LeveugleN: s.caps[i],
		}
	}
	p, width := stats.AggregateInterval(s.strata, s.confidence)
	return out, p, width
}

// Validate rejects specs the service cannot run before anything is
// journaled; the campaign command applies it to local runs too.
func (s *CampaignSpec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("spec needs a workload")
	}
	if _, err := s.scale(); err != nil {
		return err
	}
	if _, err := s.model(); err != nil {
		return err
	}
	switch s.Sampling {
	case "", SampleUniform, SampleAdaptive:
	default:
		return fmt.Errorf("unknown sampling mode %q (uniform|adaptive)", s.Sampling)
	}
	if s.N <= 0 {
		return fmt.Errorf("spec needs a positive experiment budget n")
	}
	return nil
}
