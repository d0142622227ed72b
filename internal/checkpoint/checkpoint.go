// Package checkpoint serializes and restores whole-simulator state. It is
// the stand-in for DMTCP in the paper's design (Section III.D): instead of
// checkpointing the Linux process running the simulator, it checkpoints
// the simulator object graph — which supports the same campaign workflow:
// fast-forward once to the fi_read_init_all point, snapshot, then restore
// the snapshot for every experiment with a different fault configuration.
//
// The fault engine's state is deliberately NOT part of the checkpoint:
// "upon restoring a checkpoint GemFI parses again the faults configuration
// file", so restore takes a fresh fault list.
package checkpoint

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// State is a complete, self-contained simulator snapshot.
type State struct {
	Core   cpu.CoreSnapshot
	Mem    mem.Snapshot
	Kernel kernel.Snapshot
}

// ApproxSize estimates the serialized size in bytes without encoding:
// the guest memory pages dominate, so page bytes plus a small fixed
// overhead per snapshot is within a few percent of the gob size. Used for
// observability (checkpoint-capture trace events, NoW shipping metrics)
// where an exact byte count is not worth a full encode.
func (s *State) ApproxSize() int {
	n := 4096 // core + kernel snapshots and gob framing
	for _, page := range s.Mem.Pages {
		n += len(page) + 16
	}
	return n
}

// wireState is State as Save encodes it: the memory pages leave the map,
// which gob would write in random order, for a list in address order, so
// one state always writes the same bytes. A stream written before the
// list existed carries the pages in Mem.Pages instead; Load takes either.
type wireState struct {
	Core   cpu.CoreSnapshot
	Mem    mem.Snapshot
	Kernel kernel.Snapshot
	Pages  []wirePage
}

// wirePage is one memory page of a wireState.
type wirePage struct {
	Base uint64
	Data []byte
}

// Save writes the state to w in gob format. The same state always writes
// the same bytes.
func (s *State) Save(w io.Writer) error {
	ws := wireState{Core: s.Core, Kernel: s.Kernel, Mem: mem.Snapshot{Regions: s.Mem.Regions}}
	ws.Pages = make([]wirePage, 0, len(s.Mem.Pages))
	for base, data := range s.Mem.Pages {
		ws.Pages = append(ws.Pages, wirePage{Base: base, Data: data})
	}
	slices.SortFunc(ws.Pages, func(a, b wirePage) int { return cmp.Compare(a.Base, b.Base) })
	if err := gob.NewEncoder(w).Encode(&ws); err != nil {
		return fmt.Errorf("checkpoint save: %w", err)
	}
	return nil
}

// Load reads a state from r.
func Load(r io.Reader) (*State, error) {
	var ws wireState
	if err := gob.NewDecoder(r).Decode(&ws); err != nil {
		return nil, fmt.Errorf("checkpoint load: %w", err)
	}
	s := &State{Core: ws.Core, Mem: ws.Mem, Kernel: ws.Kernel}
	if s.Mem.Pages == nil {
		s.Mem.Pages = make(map[uint64][]byte, len(ws.Pages))
	}
	for _, p := range ws.Pages {
		s.Mem.Pages[p.Base] = p.Data
	}
	return s, nil
}

// Bytes serializes the state to a byte slice (the NoW master ships
// checkpoints to workers in this form).
func (s *State) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FromBytes deserializes a state produced by Bytes.
func FromBytes(b []byte) (*State, error) {
	return Load(bytes.NewReader(b))
}

// SaveFile writes the state to a file.
func (s *State) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("checkpoint save: %w", err)
	}
	defer f.Close()
	if err := s.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a state from a file.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint load: %w", err)
	}
	defer f.Close()
	return Load(f)
}
