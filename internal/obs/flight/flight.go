// Package flight is the black-box flight recorder: a fixed-size ring of
// the last K committed instructions per experiment, cheap enough to
// leave on for whole campaigns and dumped retroactively only for the
// interesting verdicts (crash, reached-output SDC, reached-state). It
// is the in-process stand-in for gem5's --debug-flags=Exec tracing that
// GemFI §IV leans on to explain crash outcomes — but bounded, so a
// million-experiment campaign records everything and keeps almost
// nothing.
//
// The Recorder is a cpu.Observer on the shared commit epilogue of all
// three CPU models; a core without observers pays one untaken branch
// per commit, and the atomic model's fast path is re-selected whenever
// no observer is attached. Each record is compact — sequence number,
// tick, PC, raw word, the destination register write, load/store
// address+value, branch outcome — with periodic architectural
// keyframes so a post-mortem can re-anchor full register state inside
// the ring window.
package flight

import (
	"math"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// DefaultDepth is the ring size when none is configured: enough to see
// the whole propagation tail of a typical crash, small enough that a
// dump rides inside a campaign result message.
const DefaultDepth = 256

const (
	// keyframeEvery is the commit interval between architectural
	// keyframes.
	keyframeEvery = 64
	// maxKeyframes bounds the keyframe FIFO; with the default depth the
	// kept keyframes always span the ring window.
	maxKeyframes = 8
)

// Record is one committed instruction as kept in the ring: the identity
// (seq, tick, pc, raw word) plus the architecturally observable effects
// — destination register write, memory access, branch outcome.
type Record struct {
	Seq  uint64 `json:"seq"`
	Tick uint64 `json:"tick"`
	PC   uint64 `json:"pc"`
	Raw  uint32 `json:"raw"`

	// Destination register write (post-writeback value; FP values are
	// stored as IEEE-754 bits so NaNs survive JSON).
	DstUsed bool   `json:"dstUsed,omitempty"`
	DstFP   bool   `json:"dstFp,omitempty"`
	Dst     uint8  `json:"dst,omitempty"`
	DstVal  uint64 `json:"dstVal,omitempty"`

	// Memory access (loads carry the loaded value, stores the stored).
	Mem    bool   `json:"mem,omitempty"`
	Store  bool   `json:"store,omitempty"`
	EA     uint64 `json:"ea,omitempty"`
	MemVal uint64 `json:"memVal,omitempty"`

	// Branch outcome.
	Branch bool   `json:"branch,omitempty"`
	Taken  bool   `json:"taken,omitempty"`
	Target uint64 `json:"target,omitempty"`

	// Trap marks the terminal faulting instruction of a crashed run. It
	// never committed — the dump appends it so the timeline ends at the
	// crash PC instead of one instruction short of it.
	Trap bool `json:"trap,omitempty"`
}

// Disassemble renders the record's instruction in assembler syntax.
func (r *Record) Disassemble() string {
	return isa.Decode(isa.Word(r.Raw)).Disassemble(r.PC)
}

// Keyframe is a periodic full architectural snapshot, letting a
// post-mortem reconstruct every register value inside the ring window
// by replaying forward from the nearest keyframe. FP registers are
// IEEE-754 bits (JSON-safe for NaN).
type Keyframe struct {
	Seq  uint64     `json:"seq"` // seq of the commit the keyframe follows
	Tick uint64     `json:"tick"`
	PC   uint64     `json:"pc"`
	PCBB uint64     `json:"pcbb,omitempty"`
	R    [32]uint64 `json:"r"`
	F    [32]uint64 `json:"f"`
}

// Recorder is the per-runner flight recorder. It is not safe for
// concurrent use — like the taint tracker, one recorder serves one
// simulator — but every method is nil-receiver safe, so disabled-path
// callers never branch on "is flight recording on".
type Recorder struct {
	ring     []Record
	n        uint64 // commits observed since Reset
	squashed uint64
	keys     []Keyframe
}

// NewRecorder builds a recorder keeping the last depth committed
// instructions (depth <= 0 selects DefaultDepth).
func NewRecorder(depth int) *Recorder {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Recorder{ring: make([]Record, depth)}
}

// Depth returns the ring capacity (0 for a nil recorder).
func (r *Recorder) Depth() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Committed returns the number of commits observed since the last
// Reset.
func (r *Recorder) Committed() uint64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Squashed returns the number of squashed speculative instructions
// observed since the last Reset.
func (r *Recorder) Squashed() uint64 {
	if r == nil {
		return 0
	}
	return r.squashed
}

// OnCommit implements cpu.Observer: append one record to the ring,
// overwriting the oldest, and cut a keyframe on the interval.
func (r *Recorder) OnCommit(c *cpu.Commit) {
	if r == nil {
		return
	}
	seq, tick, in, ports, out, a := c.Seq, c.Ticks, c.In, c.Ports, c.Out, c.Arch
	rec := &r.ring[r.n%uint64(len(r.ring))]
	*rec = Record{Seq: seq, Tick: tick, PC: c.PC, Raw: uint32(in.Raw)}
	if ports.DstUsed {
		rec.DstUsed, rec.DstFP, rec.Dst = true, ports.DstFP, uint8(ports.Dst)
		if ports.DstFP {
			rec.DstVal = math.Float64bits(a.ReadFReg(ports.Dst))
		} else {
			rec.DstVal = a.ReadReg(ports.Dst)
		}
	}
	if in.Kind.IsMem() {
		rec.Mem, rec.EA = true, out.EA
		if in.Kind.IsStore() {
			rec.Store, rec.MemVal = true, out.StoreVal
		} else {
			rec.MemVal = c.LoadVal
		}
	}
	if in.Kind.IsBranch() {
		rec.Branch, rec.Taken, rec.Target = true, out.Taken, out.Target
	}
	r.n++
	if r.n%keyframeEvery == 0 {
		kf := Keyframe{Seq: seq, Tick: tick, PC: a.PC, PCBB: a.PCBB, R: a.R}
		for i, f := range a.F {
			kf.F[i] = math.Float64bits(f)
		}
		r.keys = append(r.keys, kf)
		if len(r.keys) > maxKeyframes {
			copy(r.keys, r.keys[1:])
			r.keys = r.keys[:maxKeyframes]
		}
	}
}

// OnSquash implements cpu.Observer. Squashed instructions never
// committed and never entered the ring; only the count is kept (a
// post-mortem of a pipelined run reports it).
func (r *Recorder) OnSquash(seq uint64) {
	if r == nil {
		return
	}
	r.squashed++
}

// OnEvent implements cpu.Observer; the ring keeps committed
// instructions only.
func (r *Recorder) OnEvent(cpu.Event, uint64) {}

// Reset clears the ring for the next experiment — the campaign runner
// calls it from the restore/fork path, alongside the taint tracker and
// profiler resets.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.n = 0
	r.squashed = 0
	r.keys = r.keys[:0]
}

// Records returns the ring contents in commit order, oldest first.
func (r *Recorder) Records() []Record {
	if r == nil || r.n == 0 {
		return nil
	}
	d := uint64(len(r.ring))
	if r.n <= d {
		out := make([]Record, r.n)
		copy(out, r.ring[:r.n])
		return out
	}
	out := make([]Record, d)
	start := r.n % d
	copy(out, r.ring[start:])
	copy(out[d-start:], r.ring[:start])
	return out
}

// Keyframes returns the kept keyframes, oldest first. Keyframes older
// than the oldest ring record are pruned — they anchor nothing.
func (r *Recorder) Keyframes() []Keyframe {
	if r == nil || len(r.keys) == 0 {
		return nil
	}
	out := append([]Keyframe(nil), r.keys...)
	if recs := r.Records(); len(recs) > 0 {
		oldest := recs[0].Seq
		for len(out) > 1 && out[0].Seq < oldest {
			out = out[1:]
		}
	}
	return out
}
