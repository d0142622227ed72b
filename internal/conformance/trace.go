package conformance

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Trace is a golden commit trace for one workload on one CPU model: a
// chained FNV-1a digest over every committed (pc, instruction) pair,
// sampled every Interval commits, plus end-of-run summary digests. A
// stored trace pins the exact committed instruction stream — any semantic
// change to the ISA, assembler, kernel or CPU model moves at least one
// digest, and the first moved window localizes the regression.
type Trace struct {
	Workload string
	Scale    string // test | small | paper
	Model    sim.ModelKind
	Interval uint64 // commits per digest window

	Insts      uint64   // total committed instructions
	ExitStatus int      //
	ConsoleFNV uint64   // digest of console output
	ArchFNV    uint64   // digest of final R/F/PC state
	MemFNV     uint64   // digest of final memory image (nonzero pages)
	Windows    []uint64 // chained digest after each Interval commits
	Final      uint64   // chained digest after the last commit
}

// FNV-1a, 64-bit.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*uint(i))))
	}
	return h
}

func fnvString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Capture runs the named workload fault-free and records its golden trace.
func Capture(name, scale string, model sim.ModelKind, interval uint64) (*Trace, error) {
	if interval == 0 {
		return nil, fmt.Errorf("conformance: capture interval must be positive")
	}
	sc, err := workloads.ParseScale(scale)
	if err != nil {
		return nil, err
	}
	w, err := workloads.ByName(name, sc)
	if err != nil {
		return nil, err
	}
	prog, err := w.Build()
	if err != nil {
		return nil, err
	}
	// EnableFI with no faults: the workloads issue fi_* PAL calls, and this
	// matches the configuration golden-run classification uses.
	s := sim.New(sim.Config{Model: model, EnableFI: true, MaxInsts: 2_000_000_000})
	if err := s.Load(prog); err != nil {
		return nil, err
	}
	t := &Trace{Workload: name, Scale: scale, Model: model, Interval: interval}
	h := uint64(fnvOffset)
	var commits uint64
	s.Core.Observers = append(s.Core.Observers, cpu.TraceFunc(func(pc uint64, in isa.Inst) {
		h = fnvU64(h, pc)
		h = fnvU64(h, uint64(uint32(in.Raw)))
		commits++
		if commits%interval == 0 {
			t.Windows = append(t.Windows, h)
		}
	}))
	r := s.Run()
	if r.Crashed || r.Hung {
		return nil, fmt.Errorf("conformance: golden run of %s failed: crashed=%v hung=%v cause=%s",
			name, r.Crashed, r.Hung, r.CrashCause)
	}
	t.Insts = s.Core.Insts
	t.ExitStatus = r.ExitStatus
	t.Final = h
	t.ConsoleFNV = fnvString(r.Console)
	t.ArchFNV = archDigest(s)
	t.MemFNV = memDigest(s)
	return t, nil
}

func archDigest(s *sim.Simulator) uint64 {
	h := uint64(fnvOffset)
	a := &s.Core.Arch
	for i := 0; i < isa.NumRegs; i++ {
		h = fnvU64(h, a.R[i])
	}
	for i := 0; i < isa.NumRegs; i++ {
		h = fnvU64(h, floatBits(a.F[i]))
	}
	h = fnvU64(h, a.PC)
	return h
}

// memDigest hashes the final memory image. All-zero pages are skipped so
// the digest is insensitive to which pages were merely allocated.
func memDigest(s *sim.Simulator) uint64 {
	snap := s.Mem.Snapshot()
	bases := make([]uint64, 0, len(snap.Pages))
	for base, pg := range snap.Pages {
		if allZero(pg) {
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	h := uint64(fnvOffset)
	for _, base := range bases {
		h = fnvU64(h, base)
		for _, b := range snap.Pages[base] {
			h = fnvByte(h, b)
		}
	}
	return h
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func parseHex(s string) (uint64, error) {
	s = strings.TrimPrefix(s, "0x")
	return strconv.ParseUint(s, 16, 64)
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// Verify re-runs the workload and compares against the stored trace,
// returning an error naming the first divergent digest window.
func (t *Trace) Verify() error {
	got, err := Capture(t.Workload, t.Scale, t.Model, t.Interval)
	if err != nil {
		return err
	}
	for i := range t.Windows {
		if i >= len(got.Windows) || got.Windows[i] != t.Windows[i] {
			lo, hi := uint64(i)*t.Interval+1, uint64(i+1)*t.Interval
			return fmt.Errorf("%s/%s/%s: commit trace diverged in window %d (commits %d..%d): want %#016x, got %v",
				t.Workload, t.Scale, t.Model, i, lo, hi, t.Windows[i], windowOr(got.Windows, i))
		}
	}
	switch {
	case len(got.Windows) != len(t.Windows):
		return fmt.Errorf("%s/%s/%s: %d digest windows, want %d", t.Workload, t.Scale, t.Model, len(got.Windows), len(t.Windows))
	case got.Final != t.Final:
		return fmt.Errorf("%s/%s/%s: final trace digest %#016x, want %#016x", t.Workload, t.Scale, t.Model, got.Final, t.Final)
	case got.Insts != t.Insts:
		return fmt.Errorf("%s/%s/%s: retired %d instructions, want %d", t.Workload, t.Scale, t.Model, got.Insts, t.Insts)
	case got.ExitStatus != t.ExitStatus:
		return fmt.Errorf("%s/%s/%s: exit status %d, want %d", t.Workload, t.Scale, t.Model, got.ExitStatus, t.ExitStatus)
	case got.ConsoleFNV != t.ConsoleFNV:
		return fmt.Errorf("%s/%s/%s: console digest %#016x, want %#016x", t.Workload, t.Scale, t.Model, got.ConsoleFNV, t.ConsoleFNV)
	case got.ArchFNV != t.ArchFNV:
		return fmt.Errorf("%s/%s/%s: final architectural state digest %#016x, want %#016x", t.Workload, t.Scale, t.Model, got.ArchFNV, t.ArchFNV)
	case got.MemFNV != t.MemFNV:
		return fmt.Errorf("%s/%s/%s: final memory digest %#016x, want %#016x", t.Workload, t.Scale, t.Model, got.MemFNV, t.MemFNV)
	}
	return nil
}

func windowOr(ws []uint64, i int) string {
	if i >= len(ws) {
		return "missing (run ended early)"
	}
	return fmt.Sprintf("%#016x", ws[i])
}

// Encode writes the trace in its stable text form.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "gemfi-trace v1")
	fmt.Fprintf(bw, "workload %s\n", t.Workload)
	fmt.Fprintf(bw, "scale %s\n", t.Scale)
	fmt.Fprintf(bw, "model %s\n", t.Model)
	fmt.Fprintf(bw, "interval %d\n", t.Interval)
	fmt.Fprintf(bw, "insts %d\n", t.Insts)
	fmt.Fprintf(bw, "exit %d\n", t.ExitStatus)
	fmt.Fprintf(bw, "console-fnv %#016x\n", t.ConsoleFNV)
	fmt.Fprintf(bw, "arch-fnv %#016x\n", t.ArchFNV)
	fmt.Fprintf(bw, "mem-fnv %#016x\n", t.MemFNV)
	for _, d := range t.Windows {
		fmt.Fprintf(bw, "digest %#016x\n", d)
	}
	fmt.Fprintf(bw, "final %#016x\n", t.Final)
	return bw.Flush()
}

// Parse reads a trace in the format written by Encode.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "gemfi-trace v1" {
		return nil, fmt.Errorf("conformance: not a gemfi-trace v1 file")
	}
	t := &Trace{}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		key, val, ok := strings.Cut(text, " ")
		if !ok {
			return nil, fmt.Errorf("conformance: trace line %d: malformed %q", line, text)
		}
		var err error
		switch key {
		case "workload":
			t.Workload = val
		case "scale":
			t.Scale = val
		case "model":
			t.Model = sim.ModelKind(val)
		case "interval":
			t.Interval, err = strconv.ParseUint(val, 10, 64)
		case "insts":
			t.Insts, err = strconv.ParseUint(val, 10, 64)
		case "exit":
			t.ExitStatus, err = strconv.Atoi(val)
		case "console-fnv":
			t.ConsoleFNV, err = parseHex(val)
		case "arch-fnv":
			t.ArchFNV, err = parseHex(val)
		case "mem-fnv":
			t.MemFNV, err = parseHex(val)
		case "digest":
			var d uint64
			if d, err = parseHex(val); err == nil {
				t.Windows = append(t.Windows, d)
			}
		case "final":
			t.Final, err = parseHex(val)
		default:
			return nil, fmt.Errorf("conformance: trace line %d: unknown key %q", line, key)
		}
		if err != nil {
			return nil, fmt.Errorf("conformance: trace line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.Workload == "" || t.Interval == 0 {
		return nil, fmt.Errorf("conformance: trace missing workload or interval header")
	}
	return t, nil
}

// ParseFile reads a trace fixture from disk.
func ParseFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
