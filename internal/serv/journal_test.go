package serv

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
)

func testSpec(n int) CampaignSpec {
	return CampaignSpec{Workload: "pi", N: n, Seed: 7}
}

func exp(id int, when uint64) campaign.Experiment {
	return campaign.Experiment{ID: id, Faults: []core.Fault{{
		Loc: core.LocIntReg, Behavior: core.BehFlip, Bit: 3, Reg: 5,
		Base: core.TimeInst, When: when, Occ: 1,
	}}}
}

func res(id int, o campaign.Outcome, when uint64) campaign.Result {
	return campaign.Result{ID: id, Outcome: o, Fault: core.Fault{Loc: core.LocIntReg, When: when}}
}

// TestJournalReplayRoundTrip: everything appended is reconstructed by a
// reopen, including across a close.
func TestJournalReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Order) != 0 {
		t.Fatalf("fresh journal has %d campaigns", len(st.Order))
	}
	spec := testSpec(4)
	recs := []record{
		{T: recSpec, Campaign: "c0001", Spec: &spec},
		{T: recWindow, Campaign: "c0001", Window: 1234},
		{T: recExps, Campaign: "c0001", Batch: 1, Exps: []campaign.Experiment{exp(1, 10), exp(2, 20)}},
		{T: recResult, Campaign: "c0001", Result: ptr(res(1, campaign.OutcomeCrashed, 10))},
		{T: recResult, Campaign: "c0001", Result: ptr(res(2, campaign.OutcomeSDC, 20))},
		{T: recDone, Campaign: "c0001"},
	}
	for _, r := range recs {
		if _, err := j.append(r); err != nil {
			t.Fatal(err)
		}
		st.apply(r)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	j2, st2, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	p := st2.Camps["c0001"]
	if p == nil {
		t.Fatal("campaign lost on replay")
	}
	if p.Window != 1234 || p.Batches != 1 || len(p.Planned) != 2 || len(p.Results) != 2 || !p.Done {
		t.Fatalf("replayed state wrong: %+v", p)
	}
	if p.Results[1].Outcome != campaign.OutcomeCrashed || p.Results[2].Outcome != campaign.OutcomeSDC {
		t.Fatalf("replayed results wrong: %+v", p.Results)
	}
}

// TestJournalCompactionAndStaleTail: after a compaction the snapshot
// alone reconstructs the state, and a stale journal tail (the crash
// window between snapshot rename and journal truncate) replays as a
// no-op: duplicate specs, already-folded batches and duplicate results
// are all skipped.
func TestJournalCompactionAndStaleTail(t *testing.T) {
	dir := t.TempDir()
	j, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(4)
	recs := []record{
		{T: recSpec, Campaign: "c0001", Spec: &spec},
		{T: recWindow, Campaign: "c0001", Window: 99},
		{T: recExps, Campaign: "c0001", Batch: 1, Exps: []campaign.Experiment{exp(1, 5)}},
		{T: recResult, Campaign: "c0001", Result: ptr(res(1, campaign.OutcomeCorrect, 5))},
	}
	for _, r := range recs {
		if _, err := j.append(r); err != nil {
			t.Fatal(err)
		}
		st.apply(r)
	}
	if err := j.compact(st); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: the pre-compaction journal lines come
	// back (as if truncate never happened) and must replay as no-ops.
	for _, r := range recs {
		if _, err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	j2, st2, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	p := st2.Camps["c0001"]
	if p == nil {
		t.Fatal("campaign lost after compaction")
	}
	if len(st2.Order) != 1 {
		t.Fatalf("duplicate spec replay created %d campaigns", len(st2.Order))
	}
	if p.Batches != 1 || len(p.Planned) != 1 {
		t.Fatalf("stale exps replay double-planned: batches=%d planned=%d", p.Batches, len(p.Planned))
	}
	if len(p.Results) != 1 {
		t.Fatalf("stale result replay double-counted: %d results", len(p.Results))
	}
}

// TestJournalTornFinalLine: a SIGKILL mid-append leaves a torn final
// line; replay keeps everything before it and tolerates the tear.
func TestJournalTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	j, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(2)
	r := record{T: recSpec, Campaign: "c0001", Spec: &spec}
	if _, err := j.append(r); err != nil {
		t.Fatal(err)
	}
	st.apply(r)
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"result","c":"c0001","result":{"id":`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	j2, st2, err := openJournal(dir)
	if err != nil {
		t.Fatalf("torn line broke replay: %v", err)
	}
	defer j2.close()
	if len(st2.Order) != 1 || st2.Camps["c0001"] == nil {
		t.Fatal("record before the torn line was lost")
	}
	if len(st2.Camps["c0001"].Results) != 0 {
		t.Fatal("torn line was half-applied")
	}
}

// TestJournalAppendAfterTornTail: a server restarted over a torn final
// line must not glue its first new record onto the fragment, or the next
// replay would stop at the merged line and lose everything after it.
func TestJournalAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(2)
	if _, err := j.append(record{T: recSpec, Campaign: "c0001", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"spec","c":"c0002","spec":{"work`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	j2, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.append(record{T: recSpec, Campaign: "c0003", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := j2.close(); err != nil {
		t.Fatal(err)
	}
	j3, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.close()
	if len(st.Order) != 2 || st.Camps["c0001"] == nil || st.Camps["c0003"] == nil {
		t.Fatalf("replay after a torn tail kept %v, want [c0001 c0003]", st.Order)
	}
}

func ptr[T any](v T) *T { return &v }
