package cpu

import (
	"math"

	"repro/internal/isa"
)

// f64FromBits is a local alias kept for readability in forwarding paths.
func f64FromBits(b uint64) float64 { return math.Float64frombits(b) }

// PipelinedModel is the cycle-accurate CPU model: a scalar 5-stage
// pipeline (IF, ID, EX, MEM, WB) with speculative fetch driven by the
// tournament branch predictor, full operand forwarding, cache-latency
// stalls and branch-mispredict squashing. It is the stand-in for gem5's
// O3 model (see DESIGN.md): it provides the per-stage fault injection
// points, the commit-or-squash lifecycle the paper's campaign methodology
// depends on, and a large cycle-cost gap versus the atomic model.
//
// Whether an instruction's stage hooks run is decided once, at its fetch,
// from the Injector.FastPath budget: an instruction fetched while no
// fault can act on it or on anything ahead of it in flight (a budget of
// at least PipeSlack) is hookless to commit, and its stage events are
// tallied on the core and retired once per cycle.
type PipelinedModel struct {
	C    *Core
	Pred *Predictor

	// The five latches are pointers into a fixed set of slots; stage
	// advances swap pointers instead of copying ~130-byte structs (the
	// struct copies dominated the cycle loop's profile).
	ifs, ids, exs, mms, wbs *pipeSlot

	fetchPC      uint64
	serialize    bool   // a PAL instruction is in flight: stop fetching
	serializeSeq uint64 // seq of the serializing instruction
	draining     bool
	squashRefill bool // last bubble came from a squash, not a miss

	Squashes uint64 // squashed instructions (speculation statistics)

	slots [5]pipeSlot // storage behind the latch pointers
}

var _ Model = (*PipelinedModel)(nil)

// pipeSlot is one pipeline latch.
type pipeSlot struct {
	valid bool
	seq   uint64
	pc    uint64
	word  uint32
	w     fiWatch // how the fault engine watches this instruction, fixed at fetch

	decoded    bool
	predecoded bool // in/ports came from the predecode cache at fetch
	in         isa.Inst
	ports      isa.RegPorts

	executed   bool
	out        ExecOut
	actualNext uint64

	accessed bool
	loadVal  uint64
	busy     uint64 // remaining stall cycles in the current stage

	predNext uint64
	trap     *Trap
}

// NewPipelined builds the pipelined model for core c, starting fetch at
// the core's architectural PC.
func NewPipelined(c *Core) *PipelinedModel {
	m := &PipelinedModel{C: c, Pred: new(Predictor)}
	m.Reset()
	return m
}

// Reset returns the model to the state NewPipelined builds, in place:
// empty latches, a cold predictor, fetch at the core's architectural PC
// and zeroed statistics.
func (m *PipelinedModel) Reset() {
	m.slots = [5]pipeSlot{}
	m.ifs, m.ids, m.exs, m.mms, m.wbs = &m.slots[0], &m.slots[1], &m.slots[2], &m.slots[3], &m.slots[4]
	m.fetchPC = m.C.Arch.PC
	m.serialize, m.serializeSeq = false, 0
	m.draining, m.squashRefill = false, false
	m.Squashes = 0
	*m.Pred = coldPredictor
}

// PipeState is a value copy of a pipelined model's microarchitectural
// state between two cycles: the five latches, fetch and serialization
// state, the squash count and the tournament predictor. It shares nothing
// with the model it came from, so it may be restored any number of times.
type PipeState struct {
	latches      [5]pipeSlot // IF, ID, EX, MEM, WB
	fetchPC      uint64
	serialize    bool
	serializeSeq uint64
	squashRefill bool
	squashes     uint64
	pred         *Predictor // its own pointer-free allocation, which the GC skips
}

// Capture copies the model's state. Call it between steps, never while
// draining.
func (m *PipelinedModel) Capture() *PipeState {
	st := &PipeState{
		fetchPC: m.fetchPC, serialize: m.serialize, serializeSeq: m.serializeSeq,
		squashRefill: m.squashRefill, squashes: m.Squashes, pred: new(Predictor),
	}
	*st.pred = *m.Pred
	for i, s := range [...]*pipeSlot{m.ifs, m.ids, m.exs, m.mms, m.wbs} {
		st.latches[i] = s.clone()
	}
	return st
}

// Restore reinstates a captured state in place. The core must hold the
// architectural state of the same instant.
func (m *PipelinedModel) Restore(st *PipeState) {
	for i := range m.slots {
		m.slots[i] = st.latches[i].clone()
	}
	m.ifs, m.ids, m.exs, m.mms, m.wbs = &m.slots[0], &m.slots[1], &m.slots[2], &m.slots[3], &m.slots[4]
	m.fetchPC, m.serialize, m.serializeSeq = st.fetchPC, st.serialize, st.serializeSeq
	m.draining, m.squashRefill = false, st.squashRefill
	m.Squashes = st.squashes
	*m.Pred = *st.pred
}

// clone copies a latch with a private trap: commit stamps the trap's PC.
func (s *pipeSlot) clone() pipeSlot {
	c := *s
	if c.trap != nil {
		t := *c.trap
		c.trap = &t
	}
	return c
}

// ModelName implements Model.
func (m *PipelinedModel) ModelName() string { return "pipelined" }

// InFlight reports how many instructions occupy pipeline latches.
func (m *PipelinedModel) InFlight() int {
	n := 0
	for _, s := range [...]*pipeSlot{m.ifs, m.ids, m.exs, m.mms, m.wbs} {
		if s.valid {
			n++
		}
	}
	return n
}

// Drain implements Model: completes (or squashes via traps) everything in
// flight without fetching new instructions, leaving the architectural PC
// at the next unexecuted instruction. Used before switching to the atomic
// model mid-run (the paper's post-fault-manifestation switch).
func (m *PipelinedModel) Drain() {
	m.draining = true
	for m.InFlight() > 0 && !m.C.Stopped {
		m.Step()
	}
	m.C.FlushRetired() // the model that runs next reports its own events
	m.draining = false
	m.fetchPC = m.C.Arch.PC
	m.serialize = false
}

// Step advances the pipeline by one cycle.
func (m *PipelinedModel) Step() bool {
	c := m.C
	if c.Stopped {
		return false
	}
	c.Ticks++
	if c.FI != nil {
		// The last cycle's hookless events, with this cycle's tick in
		// place of OnTick.
		c.retire()
	}

	retired := m.commitStage()
	if c.Stopped {
		return false
	}
	if !retired && len(c.Observers) != 0 {
		c.observeEvent(m.stallPoint())
	}
	m.memStage()
	m.execStage()
	m.decodeStage()
	m.fetchMove()
	if !m.draining {
		m.fetchStage()
	}
	return !c.Stopped
}

// commitStage retires the instruction in WB; reports whether an
// instruction actually retired this cycle (for stall accounting).
func (m *PipelinedModel) commitStage() bool {
	c := m.C
	s := m.wbs
	if !s.valid {
		return false
	}
	if s.trap != nil {
		s.trap.PC = s.pc
		m.squashYoungerThanWB()
		c.stop(s.trap)
		return false
	}
	c.writeback(&s.in, &s.ports, &s.out, s.loadVal)
	c.Arch.PC = s.actualNext
	m.squashRefill = false
	red := c.commitEpilogue(s.seq, s.pc, &s.in, &s.ports, &s.out, s.loadVal, s.w)
	s.valid = false
	if red.stopped {
		return true
	}
	if red.redirect {
		m.squashYoungerThanWB()
		m.fetchPC = red.target
		m.serialize = false
	}
	return true
}

// stallPoint classifies a no-commit cycle and picks the PC to charge:
// the oldest in-flight instruction, falling back to the fetch target
// when the pipeline is empty (refill after a squash or a long I-miss).
func (m *PipelinedModel) stallPoint() (Event, uint64) {
	switch {
	case m.mms.valid:
		return EventStallMem, m.mms.pc
	case m.exs.valid:
		return EventStallDrain, m.exs.pc
	case m.ids.valid:
		return EventStallDrain, m.ids.pc
	case m.ifs.valid:
		if m.squashRefill {
			return EventStallSquash, m.ifs.pc
		}
		return EventStallFetch, m.ifs.pc
	case m.squashRefill:
		return EventStallSquash, m.fetchPC
	default:
		return EventStallFetch, m.fetchPC
	}
}

// memStage performs the memory access and advances MEM -> WB.
func (m *PipelinedModel) memStage() {
	c := m.C
	s := m.mms
	if !s.valid || m.wbs.valid {
		return
	}
	if !s.accessed {
		s.accessed = true
		if s.trap == nil && s.in.Kind.IsMem() {
			val, lat, trap := c.accessMem(s.seq, s.pc, &s.in, &s.out, s.w.mode == hooksOn)
			if trap != nil {
				s.trap = trap
			} else {
				s.loadVal = val
			}
			if lat > 1 {
				s.busy = lat - 1
			}
		}
	}
	if s.busy > 0 {
		s.busy--
		return
	}
	m.wbs, m.mms = m.mms, m.wbs
	m.mms.valid = false
}

// execStage executes the instruction in EX, resolves branches and
// advances EX -> MEM.
func (m *PipelinedModel) execStage() {
	c := m.C
	s := m.exs
	if !s.valid || m.mms.valid {
		return
	}
	if !s.executed {
		s.executed = true
		if s.trap == nil {
			a, b, fa, fb := m.readOperandsFwd(s)
			Execute(&s.in, a, b, fa, fb, s.pc, &s.out)
			switch s.w.mode {
			case hooksOn:
				c.FI.OnExecute(s.seq, s.pc, s.in, &s.out)
			case hookless:
				c.tally.execs++
			}
			if s.out.TrapKind != TrapNone {
				s.trap = &Trap{Kind: s.out.TrapKind, PC: s.pc, Word: s.in.Raw}
			}
		}
		if s.in.Kind.IsBranch() && s.out.Taken {
			s.actualNext = s.out.Target
		} else {
			s.actualNext = s.pc + 4
		}
		if s.trap == nil && s.in.Kind.IsBranch() {
			m.Pred.Update(BranchInfo{
				PC:     s.pc,
				Taken:  s.out.Taken,
				Target: s.out.Target,
				IsRet:  s.in.Kind == isa.KindJMP && s.in.Hint == isa.HintRET,
				IsCall: s.in.Kind == isa.KindBSR || (s.in.Kind == isa.KindJMP && s.in.Hint == isa.HintJSR),
				Uncond: !s.in.Kind.IsCondBranch(),
			})
		}
		// Redirect the front end on any next-PC mismatch: branch
		// mispredicts and BTB aliasing alike. PAL instructions serialize
		// instead (the front end is already stalled).
		if s.trap == nil && s.in.Format != isa.FormatPAL && s.actualNext != s.predNext {
			m.Pred.Mispredicts++
			c.observeEvent(EventMispredict, s.pc)
			m.squashFrontend()
			m.fetchPC = s.actualNext
		}
	}
	m.mms, m.exs = m.exs, m.mms
	m.mms.accessed = false
	m.mms.busy = 0
	m.exs.valid = false
}

// decodeStage decodes the instruction in ID and advances ID -> EX.
func (m *PipelinedModel) decodeStage() {
	c := m.C
	s := m.ids
	if !s.valid || m.exs.valid {
		return
	}
	if !s.decoded {
		s.decoded = true
		if s.trap == nil {
			if !s.predecoded {
				s.in, s.ports = c.decode(s.word)
				if s.w.mode == hooksOn {
					s.ports = c.FI.OnDecode(s.seq, s.pc, s.ports)
				} else {
					c.predecodeFill(s.pc, s.word, s.in, s.ports)
				}
			}
			if s.w.mode == hookless {
				c.tally.decodes++
			}
			if s.in.Format == isa.FormatPAL && s.in.Kind != isa.KindNop {
				// Serialize: nothing younger may enter the pipeline until
				// this instruction commits and redirects. (Nops flow
				// normally; illegal PAL encodings trap at commit anyway.)
				if m.ifs.valid {
					m.squashSlot(m.ifs)
				}
				m.serialize = true
				m.serializeSeq = s.seq
			}
		}
	}
	m.exs, m.ids = m.ids, m.exs
	m.ids.valid = false
}

// fetchMove advances IF -> ID once the I-cache access completes.
func (m *PipelinedModel) fetchMove() {
	s := m.ifs
	if !s.valid {
		return
	}
	if s.busy > 0 {
		s.busy--
		return
	}
	if m.ids.valid {
		return
	}
	m.ids, m.ifs = m.ifs, m.ids
	m.ifs.valid = false
}

// fetchStage fetches a new instruction at fetchPC and predicts the next
// fetch address.
func (m *PipelinedModel) fetchStage() {
	c := m.C
	if m.ifs.valid || m.serialize {
		return
	}
	pc := m.fetchPC
	s := m.ifs
	// Clear in place, then fill: a composite literal with computed
	// fields would be built in a temporary and block-copied.
	*s = pipeSlot{}
	s.valid, s.seq, s.pc, s.w = true, c.NextSeq(), pc, c.watchAtFetch()
	if pc%4 != 0 {
		s.trap = &Trap{Kind: TrapFetchFault, PC: pc}
		s.decoded = true // nothing to decode
	} else if e := c.predecodeLookup(pc); e != nil && s.w.mode != hooksOn {
		// Predecode hit: the word and decode come from the cache, skipping
		// the memory read and the decode-stage work. Timing (I-cache
		// access, stalls) is charged identically.
		s.word, s.in, s.ports, s.predecoded = e.word, e.in, e.ports, true
		if s.w.mode == hookless {
			c.tally.fetches++
		}
		if c.Hier != nil {
			lat, miss := c.Hier.FetchAccess(pc)
			if lat > 1 {
				s.busy = lat - 1
			}
			if miss {
				c.observeEvent(EventIMiss, pc)
			}
		}
	} else if w, err := c.Mem.Read32(pc); err != nil {
		s.trap = &Trap{Kind: TrapFetchFault, PC: pc}
		s.decoded = true
	} else {
		if c.Hier != nil {
			lat, miss := c.Hier.FetchAccess(pc)
			if lat > 1 {
				s.busy = lat - 1
			}
			if miss {
				c.observeEvent(EventIMiss, pc)
			}
		}
		switch s.w.mode {
		case hooksOn:
			w = c.FI.OnFetch(s.seq, pc, w)
		case hookless:
			c.tally.fetches++
		}
		s.word = w
	}
	pred := m.Pred.Predict(pc)
	s.predNext = pred.Next
	m.fetchPC = pred.Next
}

// squashSlot invalidates a speculative slot and notifies the observers
// and, unless the slot is hookless (no fault can have struck it), the
// injector.
func (m *PipelinedModel) squashSlot(s *pipeSlot) {
	if !s.valid {
		return
	}
	if m.C.FI != nil && s.w.mode != hookless {
		m.C.FI.OnSquash(s.seq)
	}
	for _, o := range m.C.Observers {
		o.OnSquash(s.seq)
	}
	if m.serialize && s.seq == m.serializeSeq {
		m.serialize = false
	}
	m.Squashes++
	m.squashRefill = true
	s.valid = false
}

// squashFrontend squashes IF and ID (branch mispredict resolution).
func (m *PipelinedModel) squashFrontend() {
	m.squashSlot(m.ids)
	m.squashSlot(m.ifs)
}

// squashYoungerThanWB squashes everything behind the committing
// instruction (trap, PAL serialization, kernel redirect, FI PC fault).
func (m *PipelinedModel) squashYoungerThanWB() {
	m.squashSlot(m.mms)
	m.squashSlot(m.exs)
	m.squashSlot(m.ids)
	m.squashSlot(m.ifs)
}

// readOperandsFwd reads register operands with forwarding from the
// not-yet-committed instructions in MEM and WB.
func (m *PipelinedModel) readOperandsFwd(s *pipeSlot) (a, b uint64, fa, fb float64) {
	p := s.ports
	if p.SrcAUsed {
		if p.SrcAFP {
			fa = m.fwdF(p.SrcA)
		} else {
			a = m.fwdR(p.SrcA)
		}
	}
	if p.SrcBUsed {
		if p.SrcBFP {
			fb = m.fwdF(p.SrcB)
		} else {
			b = m.fwdR(p.SrcB)
		}
	}
	if s.in.Format == isa.FormatFP {
		fa = m.fwdF(p.SrcA)
		fb = m.fwdF(p.SrcB)
	}
	if s.in.IsLit {
		b = uint64(s.in.Lit)
	}
	return a, b, fa, fb
}

// fwdR resolves an integer register value, forwarding from in-flight
// producers (nearest older first: MEM, then WB), falling back to the
// architectural file.
func (m *PipelinedModel) fwdR(r isa.Reg) uint64 {
	if r == isa.ZeroReg {
		return 0
	}
	for _, src := range [...]*pipeSlot{m.mms, m.wbs} {
		if src.valid && src.trap == nil && src.ports.DstUsed && !src.ports.DstFP && src.ports.Dst == r {
			if src.in.Kind.IsLoad() {
				return src.loadVal
			}
			return src.out.IntRes
		}
	}
	return m.C.Arch.ReadReg(r)
}

// fwdF resolves a floating point register value with forwarding.
func (m *PipelinedModel) fwdF(r isa.Reg) float64 {
	if r == isa.ZeroReg {
		return 0
	}
	for _, src := range [...]*pipeSlot{m.mms, m.wbs} {
		if src.valid && src.trap == nil && src.ports.DstUsed && src.ports.DstFP && src.ports.Dst == r {
			if src.in.Kind == isa.KindLDT {
				return f64FromBits(src.loadVal)
			}
			return src.out.FpRes
		}
	}
	return m.C.Arch.ReadFReg(r)
}
