package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"repro/internal/asm"
)

// PCStat is one profiled program counter with symbol attribution.
type PCStat struct {
	PC     uint64 `json:"pc"`
	Func   string `json:"func,omitempty"` // covering function, "" when stripped
	Offset uint64 `json:"offset"`         // pc - function entry

	Insts      uint64 `json:"insts"`
	Cycles     uint64 `json:"cycles"`
	IMisses    uint64 `json:"imisses,omitempty"`
	DMisses    uint64 `json:"dmisses,omitempty"`
	Mispredict uint64 `json:"mispredicts,omitempty"`

	Stalls [NumStallCauses]uint64 `json:"stalls,omitempty"`
}

// FuncStat aggregates PCStats over one function.
type FuncStat struct {
	Name string `json:"name"`
	Addr uint64 `json:"addr"`

	Insts      uint64 `json:"insts"`
	Cycles     uint64 `json:"cycles"`
	IMisses    uint64 `json:"imisses,omitempty"`
	DMisses    uint64 `json:"dmisses,omitempty"`
	Mispredict uint64 `json:"mispredicts,omitempty"`
}

// Profile is an immutable snapshot of a Profiler: plain data, safe to
// serve, merge and aggregate after (or while) the simulation runs.
type Profile struct {
	TotalInsts  uint64       `json:"total_insts"`
	TotalCycles uint64       `json:"total_cycles"`
	PCs         []PCStat     `json:"pcs"`    // sorted by PC, zero rows omitted
	Folded      []StackCount `json:"folded"` // folded call-stack samples

	syms asm.SymbolTable
}

// Symbols returns the symbol table the profile's PCs resolve against
// (possibly nil).
func (p *Profile) Symbols() asm.SymbolTable { return p.syms }

// Snapshot captures the profiler's current state with atomic loads; it
// is safe to call from an HTTP handler while the simulation commits
// instructions.
func (p *Profiler) Snapshot() *Profile {
	out := &Profile{syms: p.syms}
	addPC := func(pc uint64, s *Sample) {
		st := PCStat{
			PC:         pc,
			Insts:      atomic.LoadUint64(&s.Insts),
			Cycles:     atomic.LoadUint64(&s.Cycles),
			IMisses:    atomic.LoadUint64(&s.IMisses),
			DMisses:    atomic.LoadUint64(&s.DMisses),
			Mispredict: atomic.LoadUint64(&s.Mispredict),
		}
		for c := range st.Stalls {
			st.Stalls[c] = atomic.LoadUint64(&s.Stalls[c])
		}
		if st == (PCStat{PC: pc}) {
			return
		}
		if sym, ok := p.syms.Lookup(pc); ok {
			st.Func, st.Offset = sym.Name, pc-sym.Addr
		}
		out.TotalInsts += st.Insts
		out.TotalCycles += st.Cycles
		out.PCs = append(out.PCs, st)
	}
	for i := range p.dense {
		addPC(p.textBase+uint64(i)*4, &p.dense[i])
	}
	p.mu.Lock()
	sparsePCs := make([]uint64, 0, len(p.sparse))
	for pc := range p.sparse {
		sparsePCs = append(sparsePCs, pc)
	}
	p.mu.Unlock()
	sort.Slice(sparsePCs, func(i, j int) bool { return sparsePCs[i] < sparsePCs[j] })
	for _, pc := range sparsePCs {
		p.mu.Lock()
		s := p.sparse[pc]
		p.mu.Unlock()
		addPC(pc, s)
	}
	sort.Slice(out.PCs, func(i, j int) bool { return out.PCs[i].PC < out.PCs[j].PC })
	out.Folded = p.stack.Folded()
	return out
}

// Merge folds other into p (campaign runners each profile their own
// simulator; the final report is the merge).
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	p.TotalInsts += other.TotalInsts
	p.TotalCycles += other.TotalCycles
	if p.syms == nil {
		p.syms = other.syms
	}

	byPC := make(map[uint64]int, len(p.PCs))
	for i := range p.PCs {
		byPC[p.PCs[i].PC] = i
	}
	for _, st := range other.PCs {
		if i, ok := byPC[st.PC]; ok {
			d := &p.PCs[i]
			d.Insts += st.Insts
			d.Cycles += st.Cycles
			d.IMisses += st.IMisses
			d.DMisses += st.DMisses
			d.Mispredict += st.Mispredict
			for c := range d.Stalls {
				d.Stalls[c] += st.Stalls[c]
			}
		} else {
			byPC[st.PC] = len(p.PCs)
			p.PCs = append(p.PCs, st)
		}
	}
	sort.Slice(p.PCs, func(i, j int) bool { return p.PCs[i].PC < p.PCs[j].PC })

	byStack := make(map[string]int, len(p.Folded))
	for i := range p.Folded {
		byStack[p.Folded[i].Stack] = i
	}
	for _, sc := range other.Folded {
		if i, ok := byStack[sc.Stack]; ok {
			p.Folded[i].Count += sc.Count
		} else {
			byStack[sc.Stack] = len(p.Folded)
			p.Folded = append(p.Folded, sc)
		}
	}
	sort.Slice(p.Folded, func(i, j int) bool { return p.Folded[i].Stack < p.Folded[j].Stack })
}

// MergeProfiles merges any number of snapshots into a fresh profile.
func MergeProfiles(ps ...*Profile) *Profile {
	out := &Profile{}
	for _, p := range ps {
		out.Merge(p)
	}
	return out
}

// ByFunc aggregates the profile per function, sorted by cycles
// descending (ties: instructions, then name). PCs without a covering
// symbol aggregate under the empty name.
func (p *Profile) ByFunc() []FuncStat {
	idx := make(map[string]int)
	var out []FuncStat
	for _, st := range p.PCs {
		i, ok := idx[st.Func]
		if !ok {
			i = len(out)
			idx[st.Func] = i
			out = append(out, FuncStat{Name: st.Func, Addr: st.PC - st.Offset})
		}
		f := &out[i]
		f.Insts += st.Insts
		f.Cycles += st.Cycles
		f.IMisses += st.IMisses
		f.DMisses += st.DMisses
		f.Mispredict += st.Mispredict
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		if out[i].Insts != out[j].Insts {
			return out[i].Insts > out[j].Insts
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// AttributedInsts returns how many retired instructions landed inside
// a named function, and the total — the ≥95%-attribution acceptance
// metric.
func (p *Profile) AttributedInsts() (named, total uint64) {
	for _, st := range p.PCs {
		total += st.Insts
		if st.Func != "" {
			named += st.Insts
		}
	}
	return named, total
}

// TopPCs returns the n hottest PCs by cycles (ties: instructions, then
// PC), without mutating the profile's PC order.
func (p *Profile) TopPCs(n int) []PCStat {
	top := append([]PCStat(nil), p.PCs...)
	sort.Slice(top, func(i, j int) bool {
		if top[i].Cycles != top[j].Cycles {
			return top[i].Cycles > top[j].Cycles
		}
		if top[i].Insts != top[j].Insts {
			return top[i].Insts > top[j].Insts
		}
		return top[i].PC < top[j].PC
	})
	if n > 0 && n < len(top) {
		top = top[:n]
	}
	return top
}

// WriteTop renders the ranked top-N text report: a per-function
// summary followed by the hottest PCs.
func (p *Profile) WriteTop(w io.Writer, n int) error {
	named, total := p.AttributedInsts()
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(named) / float64(total)
	}
	if _, err := fmt.Fprintf(w,
		"guest profile: %d insts, %d cycles, %.1f%% attributed to named functions\n\n",
		p.TotalInsts, p.TotalCycles, pct); err != nil {
		return err
	}

	fmt.Fprintf(w, "%-24s %12s %6s %12s %8s %8s %8s\n",
		"FUNC", "CYCLES", "CYC%", "INSTS", "IMISS", "DMISS", "MISPRED")
	for _, f := range p.ByFunc() {
		name := f.Name
		if name == "" {
			name = "<unknown>"
		}
		cp := 0.0
		if p.TotalCycles > 0 {
			cp = 100 * float64(f.Cycles) / float64(p.TotalCycles)
		}
		fmt.Fprintf(w, "%-24s %12d %5.1f%% %12d %8d %8d %8d\n",
			name, f.Cycles, cp, f.Insts, f.IMisses, f.DMisses, f.Mispredict)
	}

	fmt.Fprintf(w, "\n%-10s %-28s %12s %12s %8s %8s %8s  %s\n",
		"PC", "WHERE", "CYCLES", "INSTS", "IMISS", "DMISS", "MISPRED", "STALLS")
	for _, st := range p.TopPCs(n) {
		where := fmt.Sprintf("0x%x", st.PC)
		if st.Func != "" {
			where = fmt.Sprintf("%s+0x%x", st.Func, st.Offset)
		}
		stalls := ""
		for c := StallCause(0); c < NumStallCauses; c++ {
			if v := st.Stalls[c]; v > 0 {
				if stalls != "" {
					stalls += " "
				}
				stalls += fmt.Sprintf("%s:%d", c, v)
			}
		}
		fmt.Fprintf(w, "0x%08x %-28s %12d %12d %8d %8d %8d  %s\n",
			st.PC, where, st.Cycles, st.Insts, st.IMisses, st.DMisses, st.Mispredict, stalls)
	}
	return nil
}

// WriteJSON renders the full profile as JSON.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// WriteFolded renders the folded-stack ("flamegraph collapsed")
// format: one "frame;frame;frame count" line per sampled stack, ready
// for flamegraph.pl or speedscope.
func (p *Profile) WriteFolded(w io.Writer) error {
	for _, sc := range p.Folded {
		if _, err := fmt.Fprintf(w, "%s %d\n", sc.Stack, sc.Count); err != nil {
			return err
		}
	}
	return nil
}
