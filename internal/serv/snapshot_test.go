package serv

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestLegacySnapshotReplays: a snapshot written by the old whole-state
// writer (json.MarshalIndent; testdata/legacy-snapshot.json holds one
// finished and one half-done campaign) replays to exactly the state it
// encodes, the streamed writer's output replays to that same state, and
// two compactions of one state write identical bytes.
func TestLegacySnapshotReplays(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy-snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc legacySnapshot
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "snapshot.json")
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, legacy, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Order, doc.Order) || !reflect.DeepEqual(legacy.Camps, doc.Camps) {
		t.Fatal("legacy snapshot replayed to a different state than it encodes")
	}
	if p := legacy.Camps["c0001"]; p == nil || !p.Done || len(p.Results) != 6 {
		t.Fatalf("finished campaign replayed wrong: %+v", p)
	}
	if p := legacy.Camps["c0002"]; p == nil || p.Done || p.Batches != 2 || len(p.Planned) != 16 || len(p.Results) != 12 {
		t.Fatalf("open campaign replayed wrong: %+v", p)
	}

	var streamed [2][]byte
	for i := range streamed {
		if err := j.compact(legacy); err != nil {
			t.Fatal(err)
		}
		if streamed[i], err = os.ReadFile(snap); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(streamed[0], streamed[1]) {
		t.Fatal("two compactions of one state wrote different snapshots")
	}
	if bytes.HasPrefix(streamed[0], []byte("{\n")) {
		t.Fatal("compaction still writes the legacy format")
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	j2, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if !reflect.DeepEqual(st, legacy) {
		t.Fatal("streamed snapshot replays to a different state than the legacy one")
	}
}

// TestCompactionDuringCampaigns: compaction reads every campaign's
// ledger under the service lock alone while campaigns append to their
// ledgers and readers read them under campaign locks alone. Compacting
// continuously through two concurrent campaigns must race with neither
// (run under -race), and the journal must reopen to the ledgers the
// campaigns ended with.
func TestCompactionDuringCampaigns(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, spec := range []CampaignSpec{
		{Workload: "pi", N: 24, Seed: 5, Workers: 2, Fork: true},
		{Workload: "pi", N: 24, Seed: 6, Sampling: SampleAdaptive, Strata: 4, Batch: 6},
	} {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	stop := make(chan struct{})
	done := make(chan error, 2)
	go func() { // the compactor
		var err error
		for err == nil {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			s.mu.Lock()
			err = s.j.compact(s.st)
			s.mu.Unlock()
		}
		done <- err
	}()
	go func() { // a reader
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			for _, id := range ids {
				c, _ := s.Campaign(id)
				_, _, _ = c.Status(), c.Results(), c.VulnReport()
			}
		}
	}()
	want := map[string][]byte{}
	for _, id := range ids {
		if !s.Wait(id, waitBound) {
			t.Fatalf("campaign %s did not finish", id)
		}
		c, _ := s.Campaign(id)
		b, err := json.Marshal(c.Results())
		if err != nil {
			t.Fatal(err)
		}
		want[id] = b
	}
	close(stop)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("compaction: %v", err)
		}
	}
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Dir: dir, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(time.Second)
	for _, id := range ids {
		c, ok := s2.Campaign(id)
		if !ok {
			t.Fatalf("campaign %s lost", id)
		}
		if st := c.Status(); st.Phase != PhaseDone || st.Done != 24 {
			t.Fatalf("campaign %s reopened as %s with %d results", id, st.Phase, st.Done)
		}
		got, err := json.Marshal(c.Results())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[id]) {
			t.Fatalf("campaign %s: reopened results differ from the live ones", id)
		}
	}
}

// FuzzJournalReplay feeds arbitrary snapshot and journal bytes to
// openJournal (the committed corpus starts it from a valid journal, a
// torn tail, a duplicated result, repeated and out-of-order batches, and
// a legacy indented snapshot). Replay must never panic, and every
// campaign it keeps appears once, in order, with each result keyed by
// its own ID. Records appended after the replay must be replayed next
// time, and results stay deduplicated: one counted result per campaign
// re-reported with another verdict — a requeued experiment finishing
// twice — changes nothing. And a compaction of the state replays to it
// again.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, snapshot, journal []byte) {
		dir := t.TempDir()
		if len(snapshot) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		j, st, err := openJournal(dir)
		if err != nil {
			return // a corrupt snapshot is refused, not replayed
		}
		if len(st.Order) != len(st.Camps) {
			t.Fatalf("%d campaigns in order, %d in state", len(st.Order), len(st.Camps))
		}
		for _, id := range st.Order {
			p := st.Camps[id]
			if p == nil {
				t.Fatalf("campaign %q listed twice or missing", id)
			}
			for k, r := range p.Results {
				if k != r.ID {
					t.Fatalf("campaign %q: result %d filed under %d", id, r.ID, k)
				}
			}
		}

		// New records follow whatever the journal ended with, a torn tail
		// included: the re-reports, which must change nothing, and one new
		// campaign, which must replay.
		errStop := errors.New("one is enough")
		for _, id := range st.Order {
			_ = st.Camps[id].eachResult(func(r *campaign.Result) error {
				again := *r
				again.Outcome++
				if _, err := j.append(record{T: recResult, Campaign: id, Result: &again}); err != nil {
					t.Fatal(err)
				}
				return errStop
			})
		}
		fresh := record{T: recSpec, Campaign: "new", Spec: &CampaignSpec{Workload: "pi", N: 1}}
		for st.Camps[fresh.Campaign] != nil {
			fresh.Campaign += "+"
		}
		if _, err := j.append(fresh); err != nil {
			t.Fatal(err)
		}
		st.apply(fresh)
		want := snapshotBytes(t, st)
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		j, st, err = openJournal(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := snapshotBytes(t, st); !bytes.Equal(want, got) {
			t.Fatalf("re-reported results changed the state:\nbefore %s\nafter  %s", want, got)
		}

		if err := j.compact(st); err != nil {
			t.Fatal(err)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		j, st, err = openJournal(dir)
		if err != nil {
			t.Fatalf("compacted state does not replay: %v", err)
		}
		defer j.close()
		if got := snapshotBytes(t, st); !bytes.Equal(want, got) {
			t.Fatalf("compaction changed the state:\nbefore %s\nafter  %s", want, got)
		}
	})
}

func snapshotBytes(t *testing.T, st *journalState) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := st.writeSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
