package cpu

// Tournament branch predictor, matching the paper's simulated
// configuration ("a single core ALPHA CPU coupled with a tournament branch
// predictor"). It combines a local-history predictor and a gshare global
// predictor through a chooser table, with a branch target buffer and a
// small return address stack.

const (
	localEntries   = 1024
	localHistBits  = 10
	globalEntries  = 4096
	chooserEntries = 4096
	btbEntries     = 512
	rasDepth       = 8
)

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	isRet  bool // memory-format jump with the RET hint: use the RAS
	isCall bool // BSR / JSR-hinted jump: push the RAS
	uncond bool // unconditional transfer: ignore the direction predictor
}

// Predictor is a tournament direction predictor with BTB and RAS.
type Predictor struct {
	// Disabled makes Predict always guess fall-through and Update a
	// no-op — the "no branch prediction" ablation baseline.
	Disabled bool

	localHist [localEntries]uint16
	localCtr  [1 << localHistBits]uint8
	globalCtr [globalEntries]uint8
	chooser   [chooserEntries]uint8
	ghist     uint64
	btb       [btbEntries]btbEntry
	ras       [rasDepth]uint64
	rasTop    int

	Lookups     uint64
	Mispredicts uint64
}

// coldPredictor is the power-on state: weakly-not-taken counters and a
// slight chooser preference for the global side. Resets copy it.
var coldPredictor = func() Predictor {
	var p Predictor
	for i := range p.localCtr {
		p.localCtr[i] = 1
	}
	for i := range p.globalCtr {
		p.globalCtr[i] = 1
	}
	for i := range p.chooser {
		p.chooser[i] = 2
	}
	return p
}()

// NewPredictor returns a predictor with weakly-not-taken counters.
func NewPredictor() *Predictor {
	p := new(Predictor)
	*p = coldPredictor
	return p
}

func (p *Predictor) localIndex(pc uint64) int { return int(pc>>2) & (localEntries - 1) }

func (p *Predictor) globalIndex(pc uint64) int {
	return int((pc>>2)^p.ghist) & (globalEntries - 1)
}

func (p *Predictor) chooseIndex(pc uint64) int { return int(p.ghist) & (chooserEntries - 1) }

func (p *Predictor) btbIndex(pc uint64) int { return int(pc>>2) & (btbEntries - 1) }

// Prediction is the front-end's guess for the instruction at PC.
type Prediction struct {
	Next    uint64 // predicted next fetch address
	Taken   bool
	BTBHit  bool
	UsedRAS bool
}

// Predict guesses the next fetch address for the instruction at pc. Only
// BTB hits can redirect the front end (an unseen branch predicts
// fall-through), as in a real fetch stage that cannot yet see the
// instruction bits.
func (p *Predictor) Predict(pc uint64) Prediction {
	p.Lookups++
	fallthrough_ := pc + 4
	if p.Disabled {
		return Prediction{Next: fallthrough_}
	}
	e := p.btb[p.btbIndex(pc)]
	if !e.valid || e.tag != pc {
		return Prediction{Next: fallthrough_}
	}
	if e.isRet {
		t := p.rasPop()
		if t != 0 {
			return Prediction{Next: t, Taken: true, BTBHit: true, UsedRAS: true}
		}
		return Prediction{Next: e.target, Taken: true, BTBHit: true}
	}
	taken := e.uncond || p.direction(pc)
	if e.isCall && taken {
		p.rasPush(fallthrough_)
	}
	if taken {
		return Prediction{Next: e.target, Taken: true, BTBHit: true}
	}
	return Prediction{Next: fallthrough_, BTBHit: true}
}

// direction runs the tournament: chooser >= 2 selects the global side.
func (p *Predictor) direction(pc uint64) bool {
	if p.chooser[p.chooseIndex(pc)] >= 2 {
		return p.globalCtr[p.globalIndex(pc)] >= 2
	}
	hist := p.localHist[p.localIndex(pc)] & ((1 << localHistBits) - 1)
	return p.localCtr[hist] >= 2
}

// BranchInfo describes a resolved control transfer for training.
type BranchInfo struct {
	PC     uint64
	Taken  bool
	Target uint64
	IsRet  bool
	IsCall bool
	Uncond bool
}

// Update trains the predictor with the resolved branch and reports
// whether the earlier prediction would have been correct is left to the
// pipeline (which compares fetch redirection); Update only adjusts state.
func (p *Predictor) Update(b BranchInfo) {
	if p.Disabled {
		return
	}
	// Tournament training: whichever side was right gets the chooser vote.
	localHist := p.localHist[p.localIndex(b.PC)] & ((1 << localHistBits) - 1)
	localPred := p.localCtr[localHist] >= 2
	globalPred := p.globalCtr[p.globalIndex(b.PC)] >= 2
	ci := p.chooseIndex(b.PC)
	if localPred != globalPred {
		if globalPred == b.Taken {
			p.chooser[ci] = satInc(p.chooser[ci])
		} else {
			p.chooser[ci] = satDec(p.chooser[ci])
		}
	}
	p.localCtr[localHist] = train(p.localCtr[localHist], b.Taken)
	p.globalCtr[p.globalIndex(b.PC)] = train(p.globalCtr[p.globalIndex(b.PC)], b.Taken)
	p.localHist[p.localIndex(b.PC)] = (p.localHist[p.localIndex(b.PC)] << 1) | boolU16(b.Taken)
	p.ghist = (p.ghist << 1) | uint64(boolU16(b.Taken))

	if b.Taken {
		p.btb[p.btbIndex(b.PC)] = btbEntry{
			valid: true, tag: b.PC, target: b.Target,
			isRet: b.IsRet, isCall: b.IsCall, uncond: b.Uncond,
		}
	}
}

// Reset clears all prediction state in place (used on checkpoint restore
// and model switches); Disabled survives.
func (p *Predictor) Reset() {
	disabled := p.Disabled
	*p = coldPredictor
	p.Disabled = disabled
}

func (p *Predictor) rasPush(addr uint64) {
	p.ras[p.rasTop%rasDepth] = addr
	p.rasTop++
}

func (p *Predictor) rasPop() uint64 {
	if p.rasTop == 0 {
		return 0
	}
	p.rasTop--
	return p.ras[p.rasTop%rasDepth]
}

func train(ctr uint8, taken bool) uint8 {
	if taken {
		return satInc(ctr)
	}
	return satDec(ctr)
}

func satInc(c uint8) uint8 {
	if c < 3 {
		return c + 1
	}
	return c
}

func satDec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}

func boolU16(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}
