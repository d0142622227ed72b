package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// expected.json holds the simulated statistics every run must reproduce
// exactly: they depend on the guest programs and the fault corpus, never
// on the host or on --seed. Regenerate with -update-expected after a
// change that is meant to alter simulated behaviour.
//
//go:embed expected.json
var expectedJSON []byte

const expectedPath = "benchmark/expected.json"

// simExpect is the exact result of one fault-free guest run.
type simExpect struct {
	Insts  uint64 `json:"insts"`
	Ticks  uint64 `json:"ticks"`
	Exit   int    `json:"exit"`
	Digest string `json:"digest"` // of the guest's output symbols
}

// campExpect is the exact result of one campaign over the fixed corpus.
type campExpect struct {
	// Outcomes holds one digit per experiment, in corpus order: the
	// campaign.Outcome value.
	Outcomes string `json:"outcomes"`
	Insts    uint64 `json:"insts"` // sum of Result.Insts
}

type expectations struct {
	Sim      map[string]simExpect  `json:"sim"`
	Campaign map[string]campExpect `json:"campaign"`

	update bool
}

// loadExpectations reads the file built into the binary, or, in update
// mode, the file on disk, so that the one process per workload of an
// update each add to what the others wrote.
func loadExpectations(update bool) (*expectations, error) {
	e := &expectations{update: update}
	data := expectedJSON
	if update {
		var err error
		if data, err = os.ReadFile(expectedPath); err != nil {
			return nil, err
		}
	}
	if err := json.Unmarshal(data, e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if e.Sim == nil {
		e.Sim = make(map[string]simExpect)
	}
	if e.Campaign == nil {
		e.Campaign = make(map[string]campExpect)
	}
	return e, nil
}

// save writes the file back (update mode), keeping entries this run did
// not touch.
func (e *expectations) save() error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}

// checkSim compares one guest run with its expectation and returns a
// description of the mismatch, or "".
func (e *expectations) checkSim(key string, got simExpect) string {
	if e.update {
		e.Sim[key] = got
		return ""
	}
	want, ok := e.Sim[key]
	if !ok {
		return fmt.Sprintf("%s: no expectation (run -update-expected)", key)
	}
	if got != want {
		return fmt.Sprintf("%s: got %+v, want %+v", key, got, want)
	}
	return ""
}

// checkCampaign compares one campaign with its expectation and returns
// how many experiments are wrong and a description, or 0 and "".
func (e *expectations) checkCampaign(key string, got campExpect) (int, string) {
	if e.update {
		e.Campaign[key] = got
		return 0, ""
	}
	want, ok := e.Campaign[key]
	if !ok {
		return len(got.Outcomes), fmt.Sprintf("%s: no expectation (run -update-expected)", key)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		return len(got.Outcomes), fmt.Sprintf("%s: %d results, want %d", key, len(got.Outcomes), len(want.Outcomes))
	}
	var bad []int
	for i := range got.Outcomes {
		if got.Outcomes[i] != want.Outcomes[i] {
			bad = append(bad, i)
		}
	}
	switch {
	case len(bad) > 0:
		return len(bad), fmt.Sprintf("%s: outcome differs for corpus experiments %v", key, bad)
	case got.Insts != want.Insts:
		return 1, fmt.Sprintf("%s: %d instructions in total, want %d", key, got.Insts, want.Insts)
	}
	return 0, ""
}
