package serv

import (
	"testing"

	"repro/internal/campaign"
)

// TestStreamKeepsSlowWatchers: a watcher that reads nothing while a burst
// of results far larger than any buffer lands must still get every
// result, in order, then the done event.
func TestStreamKeepsSlowWatchers(t *testing.T) {
	c := newCampaign("c0001", &persisted{Results: map[int]campaign.Result{}})
	q, cancel := c.subscribe()
	defer cancel()
	const n = 5000
	for id := 1; id <= n; id++ {
		c.broadcast(streamEvent{Type: "result", Result: &campaign.Result{ID: id}})
	}
	c.mu.Lock()
	c.phase = PhaseDone
	c.finishLocked()
	c.mu.Unlock()
	evs, closed := q.take()
	if !closed || len(evs) != n+1 || evs[n].Type != "done" {
		t.Fatalf("watcher got %d events (closed %v), want %d results and done", len(evs), closed, n)
	}
	for i, ev := range evs[:n] {
		if ev.Result == nil || ev.Result.ID != i+1 {
			t.Fatalf("event %d: %+v, want result %d", i, ev, i+1)
		}
	}
}
