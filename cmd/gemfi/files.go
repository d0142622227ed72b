package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/taint"
)

// listCmd assembles (.s, .asm) or compiles (anything else, as mini-C) a
// guest program and prints its disassembly listing with symbols, the
// closest thing the toolchain has to an object dump.
//
//	gemfi list prog.mc
//	gemfi list -q prog.s
func listCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("list", stderr)
	quiet := fs.Bool("q", false, "suppress the listing (only check that the program builds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: gemfi list [-q] file.mc|file.s")
	}
	p, err := loadFile(fs.Arg(0))
	if err != nil || *quiet {
		return err
	}
	writeListing(stdout, p)
	return nil
}

// writeListing disassembles the text section with symbol annotations.
func writeListing(w io.Writer, p *asm.Program) {
	symAt := map[uint64][]string{}
	for _, name := range p.SortedSymbols() {
		symAt[p.SymbolMap[name]] = append(symAt[p.SymbolMap[name]], name)
	}
	fmt.Fprintf(w, "; text 0x%x (%d instructions), data 0x%x (%d bytes), entry 0x%x\n",
		p.TextBase, len(p.Text), p.DataBase, len(p.Data), p.Entry)
	for i, word := range p.Text {
		addr := p.TextBase + uint64(i)*4
		for _, s := range symAt[addr] {
			fmt.Fprintf(w, "%s:\n", s)
		}
		fmt.Fprintf(w, "  0x%06x  %08x  %s\n", addr, uint32(word), isa.Decode(word).Disassemble(addr))
	}
	fmt.Fprintln(w, "; symbols:")
	for _, name := range p.SortedSymbols() {
		fmt.Fprintf(w, ";   %-24s 0x%x\n", name, p.SymbolMap[name])
	}
}

// validators check one file kind against its schema and summarize it.
var validators = map[string]func(io.Reader) (string, error){
	"prom": func(r io.Reader) (string, error) {
		n, err := obs.ValidateProm(r)
		return fmt.Sprintf("%d samples OK", n), err
	},
	"spans": func(r io.Reader) (string, error) {
		n, err := obs.ValidateSpansJSONL(r)
		return fmt.Sprintf("%d spans OK", n), err
	},
	"taint": func(r io.Reader) (string, error) {
		rep, err := taint.ValidateReportJSON(r)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("OK (verdict=%s nodes=%d edges=%d)",
			rep.Verdict, len(rep.Nodes), len(rep.Edges)), nil
	},
	"postmortem": func(r io.Reader) (string, error) {
		pm, err := flight.ValidatePostmortemJSON(r)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("OK (outcome=%s records=%d finalPc=%#x)",
			pm.Outcome, len(pm.Records), pm.FinalPC()), nil
	},
}

// validateCmd checks a file an observability output wrote: span JSONL
// (-spans-jsonl), a Prometheus exposition (/metrics), a propagation
// report (-taint-json) or a post-mortem dump (/postmortem/{id}).
//
//	gemfi validate spans trace.jsonl
func validateCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("validate", stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	check, ok := validators[fs.Arg(0)]
	if fs.NArg() != 2 || !ok {
		return fmt.Errorf("usage: gemfi validate spans|prom|taint|postmortem FILE")
	}
	path := fs.Arg(1)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	msg, err := check(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(stdout, "%s: %s\n", path, msg)
	return nil
}
