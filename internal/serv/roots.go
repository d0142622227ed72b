package serv

// Prepared roots. GemFI prepares a program once: it boots to
// fi_read_init_all and ships the one checkpoint taken there to every
// workstation (§III.E). The Service does the same across submissions: it
// keeps the campaign.Root of recent campaigns — golden outputs, window,
// watchdog, checkpoint, fork trunk, taint golden state — keyed by what
// determines it, so an identical submission builds only its runners. The
// cache lives as long as its Service; roots are not journaled, so a
// restarted service prepares each key once again.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// maxRoots bounds the roots a Service keeps, least recently used first
// out. A test-scale root holds well under a MiB; a paper-scale one holds
// its checkpoint's pages and the trunk's snapshots.
const maxRoots = 4

// rootKey names a prepared root: the digest of the workload's assembled
// program, the digest of the runners' sim.Config (Metrics cleared), and
// whether the root carries a fork trunk.
type rootKey struct {
	program, config string
	fork            bool
}

// newRootKey keys the root a campaign of w under cfg prepares.
func newRootKey(w *workloads.Workload, cfg sim.Config, fork bool) (rootKey, error) {
	p, err := w.Build()
	if err != nil {
		return rootKey{}, err
	}
	return rootKey{program: p.Digest(), config: cfg.Digest(), fork: fork}, nil
}

// digest is the key as one hex string, as campaign status reports it.
func (k rootKey) digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%s/%t", k.program, k.config, k.fork)))
	return hex.EncodeToString(sum[:])
}

// rootEntry is one cached root, or one being prepared: ready closes once
// root or err is set.
type rootEntry struct {
	ready chan struct{}
	root  *campaign.Root
	err   error
	used  uint64 // the cache clock at the last lookup
}

// rootCache is a Service's prepared roots. All methods are safe for
// concurrent use.
type rootCache struct {
	mu    sync.Mutex
	byKey map[rootKey]*rootEntry
	clock uint64

	prepared, reused *obs.Counter
}

func newRootCache(m *obs.Registry) *rootCache {
	return &rootCache{
		byKey:    make(map[rootKey]*rootEntry),
		prepared: m.Counter("serv.roots_prepared"),
		reused:   m.Counter("serv.roots_reused"),
	}
}

// get returns the root under key, calling prepare on a miss, and whether
// the root was already there. Lookups of a key being prepared wait for
// that one preparation. A failed preparation is returned to everyone
// waiting on it and then forgotten, so the next lookup prepares again.
func (rc *rootCache) get(key rootKey, prepare func() (*campaign.Root, error)) (*campaign.Root, bool, error) {
	rc.mu.Lock()
	rc.clock++
	if e, ok := rc.byKey[key]; ok {
		e.used = rc.clock
		rc.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false, e.err
		}
		rc.reused.Inc()
		return e.root, true, nil
	}
	e := &rootEntry{ready: make(chan struct{}), used: rc.clock}
	rc.byKey[key] = e
	rc.evictLocked()
	rc.mu.Unlock()

	e.root, e.err = prepare()
	if e.err != nil {
		rc.mu.Lock()
		if rc.byKey[key] == e {
			delete(rc.byKey, key)
		}
		rc.mu.Unlock()
	} else {
		rc.prepared.Inc()
	}
	close(e.ready)
	return e.root, false, e.err
}

// evictLocked drops the least recently used roots beyond maxRoots. A
// root being prepared may go too: whoever waits on it still gets it.
// Caller holds rc.mu.
func (rc *rootCache) evictLocked() {
	for len(rc.byKey) > maxRoots {
		var oldest rootKey
		var at uint64
		for k, e := range rc.byKey {
			if at == 0 || e.used < at {
				oldest, at = k, e.used
			}
		}
		delete(rc.byKey, oldest)
	}
}
