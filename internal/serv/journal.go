package serv

// Durable campaign storage: an append-only JSONL journal plus a
// periodically compacted snapshot. Every state transition — campaign
// submitted, injection window discovered, batch planned, experiment
// classified, campaign finished — is one appended line, flushed to the
// OS before the call returns, so a server killed with SIGKILL loses at
// most results the kernel had not yet accepted (none, in practice: the
// page cache survives process death, only machine death loses it).
// Graceful shutdown additionally fsyncs. A restarted server replays
// snapshot + journal and resumes every unfinished campaign with
// exactly-once accounting: results are keyed by (campaign, experiment)
// and deduplicated on both append and replay, so a requeued experiment
// that reports twice still counts once.
//
// The snapshot is made of the same records, streamed one at a time: per
// campaign a camp header (spec, window, batch count, whole plan), its
// done mark, then its results in planned order. Compaction therefore
// never holds more than one encoded record, and replay folds snapshot
// and journal through the same apply. Snapshots written before they
// were streamed — the whole state as one indented JSON document — still
// load.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/campaign"
)

// record is one journal line; T selects which fields are meaningful.
type record struct {
	T        string                `json:"t"`
	Campaign string                `json:"c,omitempty"`
	Spec     *CampaignSpec         `json:"spec,omitempty"`
	Window   uint64                `json:"window,omitempty"`
	Batch    int                   `json:"batch,omitempty"` // 1-based batch sequence for exps records
	Exps     []campaign.Experiment `json:"exps,omitempty"`
	Result   *campaign.Result      `json:"result,omitempty"`
}

// Record types.
const (
	recSpec   = "spec"   // campaign submitted
	recWindow = "window" // golden run done, injection window known
	recExps   = "exps"   // batch of experiments planned
	recResult = "result" // one experiment classified
	recDone   = "done"   // campaign reached its budget
	// recCamp opens a campaign in a snapshot: spec, window, batch count
	// (Batch) and the whole plan (Exps) in one record.
	recCamp = "camp"
)

// persisted is one campaign's durable state, as reconstructed by replay.
// The JSON tags are the legacy snapshot's field names.
type persisted struct {
	Spec    CampaignSpec            `json:"spec"`
	Window  uint64                  `json:"window,omitempty"`
	Batches int                     `json:"batches,omitempty"`
	Planned []campaign.Experiment   `json:"planned,omitempty"`
	Results map[int]campaign.Result `json:"results,omitempty"`
	Done    bool                    `json:"done,omitempty"`
}

// eachResult calls fn on every result once: in planned order, then any
// result outside the plan in ID order. It stops at fn's first error.
func (p *persisted) eachResult(fn func(*campaign.Result) error) error {
	seen := make(map[int]bool, len(p.Results))
	for _, e := range p.Planned {
		if r, ok := p.Results[e.ID]; ok && !seen[e.ID] {
			seen[e.ID] = true
			if err := fn(&r); err != nil {
				return err
			}
		}
	}
	if len(seen) == len(p.Results) {
		return nil
	}
	var extra []int
	for id := range p.Results {
		if !seen[id] {
			extra = append(extra, id)
		}
	}
	sort.Ints(extra)
	for _, id := range extra {
		r := p.Results[id]
		if err := fn(&r); err != nil {
			return err
		}
	}
	return nil
}

// journalState is the full replayed store: campaign order (submission
// order, which also fixes ID allocation) and per-campaign state.
type journalState struct {
	Order []string
	Camps map[string]*persisted
}

func newJournalState() *journalState {
	return &journalState{Camps: make(map[string]*persisted)}
}

// apply folds one record into the state; unknown campaigns and duplicate
// results are tolerated (the exactly-once dedupe point for replay).
func (st *journalState) apply(r record) {
	switch r.T {
	case recSpec, recCamp:
		if _, dup := st.Camps[r.Campaign]; dup || r.Spec == nil {
			return
		}
		p := &persisted{Spec: *r.Spec, Results: make(map[int]campaign.Result)}
		if r.T == recCamp {
			p.Window, p.Batches, p.Planned = r.Window, r.Batch, r.Exps
		}
		st.Order = append(st.Order, r.Campaign)
		st.Camps[r.Campaign] = p
	case recWindow:
		if p := st.Camps[r.Campaign]; p != nil {
			p.Window = r.Window
		}
	case recExps:
		p := st.Camps[r.Campaign]
		if p == nil || r.Batch != p.Batches+1 {
			// A batch at or below p.Batches is already folded into the
			// snapshot (possible when a crash lands between snapshot
			// rename and journal truncation) — replay must skip it.
			return
		}
		p.Planned = append(p.Planned, r.Exps...)
		p.Batches++
	case recResult:
		p := st.Camps[r.Campaign]
		if p == nil || r.Result == nil {
			return
		}
		if _, dup := p.Results[r.Result.ID]; !dup {
			p.Results[r.Result.ID] = *r.Result
		}
	case recDone:
		if p := st.Camps[r.Campaign]; p != nil {
			p.Done = true
		}
	}
}

// compactEvery bounds journal growth: after this many appended records
// the journal is folded into the snapshot and truncated.
const compactEvery = 4096

// journal is the on-disk store. All methods are safe for concurrent use.
type journal struct {
	dir string

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	appended int
}

func (j *journal) logPath() string  { return filepath.Join(j.dir, "journal.jsonl") }
func (j *journal) snapPath() string { return filepath.Join(j.dir, "snapshot.json") }

// openJournal opens (creating if needed) the store in dir and replays
// snapshot + journal into a state.
func openJournal(dir string) (*journal, *journalState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serv: journal dir: %w", err)
	}
	j := &journal{dir: dir}
	st := newJournalState()

	// Snapshot first (the compacted prefix), then the journal tail.
	if f, err := os.Open(j.snapPath()); err == nil {
		err = st.loadSnapshot(f)
		_ = f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("serv: corrupt snapshot %s: %w", j.snapPath(), err)
		}
	}
	if f, err := os.Open(j.logPath()); err == nil {
		// A torn final line is expected after SIGKILL; anything after it
		// is unreachable, so replay stops there without complaint, and the
		// tear is cut off so the next record starts a line of its own.
		n, rerr := st.replayLines(f)
		_ = f.Close()
		if rerr != nil {
			if err := os.Truncate(j.logPath(), n); err != nil {
				return nil, nil, fmt.Errorf("serv: cut torn journal tail: %w", err)
			}
		}
	}

	f, err := os.OpenFile(j.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serv: open journal: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriterSize(f, 64<<10)
	return j, st, nil
}

// replayLines folds r's records, one JSON object per line, into the
// state. It stops at the first line that does not parse or has no
// newline (every record is written with its newline in one write), and
// returns that line's error with the length of the replayed prefix.
func (st *journalState) replayLines(r io.Reader) (int64, error) {
	var n, adv int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			adv = int64(i + 1)
			return i + 1, data[:i], nil
		}
		if atEOF && len(data) > 0 {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, nil
	})
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			var rec record
			if err := json.Unmarshal(line, &rec); err != nil {
				return n, err
			}
			st.apply(rec)
		}
		n += adv
	}
	return n, sc.Err()
}

// loadSnapshot folds a snapshot into the state. A snapshot is renamed
// into place whole, so unlike the journal tail a line that does not
// parse is corruption.
func (st *journalState) loadSnapshot(r io.Reader) error {
	br := bufio.NewReaderSize(r, 64<<10)
	if head, _ := br.Peek(2); string(head) == "{\n" {
		return st.loadLegacy(br)
	}
	_, err := st.replayLines(br)
	return err
}

// legacySnapshot is the snapshot format written before snapshots were
// streamed: the whole state as one indented JSON document.
type legacySnapshot struct {
	Order []string              `json:"order"`
	Camps map[string]*persisted `json:"campaigns"`
}

// loadLegacy folds a legacy snapshot into the state through apply, so it
// gets the same dedupe as any replay: each campaign once, in order, and
// each result once, keyed by its own ID.
func (st *journalState) loadLegacy(r io.Reader) error {
	var old legacySnapshot
	if err := json.NewDecoder(r).Decode(&old); err != nil {
		return err
	}
	for _, id := range old.Order {
		p := old.Camps[id]
		if p == nil {
			continue
		}
		st.apply(record{T: recCamp, Campaign: id, Spec: &p.Spec, Window: p.Window, Batch: p.Batches, Exps: p.Planned})
		if p.Done {
			st.apply(record{T: recDone, Campaign: id})
		}
		keys := make([]int, 0, len(p.Results))
		for k := range p.Results {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			res := p.Results[k]
			st.apply(record{T: recResult, Campaign: id, Result: &res})
		}
	}
	return nil
}

// writeSnapshot streams the state as snapshot records: per campaign, in
// submission order, its camp header, its done mark and its results in
// planned order. The same state always writes the same bytes.
func (st *journalState) writeSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, id := range st.Order {
		p := st.Camps[id]
		err := enc.Encode(record{T: recCamp, Campaign: id, Spec: &p.Spec, Window: p.Window, Batch: p.Batches, Exps: p.Planned})
		if err == nil && p.Done {
			err = enc.Encode(record{T: recDone, Campaign: id})
		}
		if err == nil {
			err = p.eachResult(func(r *campaign.Result) error {
				return enc.Encode(record{T: recResult, Campaign: id, Result: r})
			})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// append writes one record and flushes it to the OS. Returns the number
// of records appended since the last compaction so the caller can
// trigger one (compaction needs the caller's state, not the journal's).
func (j *journal) append(r record) (int, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, fmt.Errorf("serv: journal closed")
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return 0, err
	}
	if err := j.w.Flush(); err != nil {
		return 0, err
	}
	j.appended++
	return j.appended, nil
}

// compact writes the full state as a snapshot — streamed to a temporary
// file, fsynced, then renamed into place — and truncates the journal.
// The caller must pass a state that already reflects every appended
// record.
func (j *journal) compact(st *journalState) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("serv: journal closed")
	}
	tmp := j.snapPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	err = st.writeSnapshot(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, j.snapPath())
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	// The snapshot now covers everything; truncating the journal is safe
	// even if we die between these steps — replaying a stale journal line
	// over the snapshot is a no-op (spec/result dedupe, batch sequencing).
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return err
	}
	j.w.Reset(j.f)
	j.appended = 0
	return nil
}

// sync flushes and fsyncs the journal — the graceful-shutdown barrier.
func (j *journal) sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// close flushes, fsyncs and closes the journal.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.w.Flush()
	if serr := j.f.Sync(); err == nil {
		err = serr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
