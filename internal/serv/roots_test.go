package serv

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// runSpec submits spec to s and returns the campaign once it is done.
func runSpec(t *testing.T, s *Service, spec CampaignSpec) *Campaign {
	t.Helper()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return doneCampaign(t, s, id)
}

// doneCampaign waits for campaign id and requires it done.
func doneCampaign(t *testing.T, s *Service, id string) *Campaign {
	t.Helper()
	if !s.Wait(id, waitBound) {
		t.Fatalf("campaign %s did not finish", id)
	}
	c, _ := s.Campaign(id)
	if st := c.Status(); st.Phase != PhaseDone {
		t.Fatalf("campaign %s: phase %s (%s)", id, st.Phase, st.Error)
	}
	return c
}

// sameResults requires two campaigns' results to be equal in every field
// but the wall time and the trace ID.
func sameResults(t *testing.T, what string, got, want []campaign.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		g.WallNs, w.WallNs = 0, 0
		g.TraceID, w.TraceID = "", ""
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: experiment %d: %+v, want %+v", what, w.ID, g, w)
		}
	}
}

// TestRootReuseBitIdentical: a submission that reuses a prepared root
// gives every experiment the result a fresh service gives it, and counts
// its own fork accounting, equal to the fresh campaign's, on atomic and
// pipelined fork campaigns and on a campaign without a trunk.
func TestRootReuseBitIdentical(t *testing.T) {
	for _, spec := range []CampaignSpec{
		{Workload: "pi", N: 40, Seed: 3, Workers: 2, Fork: true},
		{Workload: "pi", Model: "pipelined", N: 24, Seed: 3, Workers: 2, Fork: true},
		{Workload: "pi", N: 24, Seed: 3, Workers: 2},
	} {
		t.Run(fmt.Sprintf("%s/fork=%v", spec.Model, spec.Fork), func(t *testing.T) {
			shared, err := New(Config{Dir: t.TempDir(), Slots: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer shared.Shutdown(time.Second)
			fresh, err := New(Config{Dir: t.TempDir(), Slots: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Shutdown(time.Second)

			first, second := runSpec(t, shared, spec), runSpec(t, shared, spec)
			ref := runSpec(t, fresh, spec)
			st1, st2, ref0 := first.Status(), second.Status(), ref.Status()
			if st1.RootReused || !st2.RootReused || ref0.RootReused {
				t.Errorf("rootReused: first %v, second %v, fresh %v; want false, true, false", st1.RootReused, st2.RootReused, ref0.RootReused)
			}
			if st1.Root == "" || st2.Root != st1.Root || ref0.Root != st1.Root {
				t.Errorf("root digests: first %q, second %q, fresh %q; want one nonempty digest", st1.Root, st2.Root, ref0.Root)
			}
			want := ref.Results()
			sameResults(t, "first", first.Results(), want)
			sameResults(t, "second", second.Results(), want)
			wantStats := ref.ForkStats()
			if spec.Fork && wantStats.Walks == 0 {
				t.Fatal("the fresh fork campaign ran no walk")
			}
			for name, c := range map[string]*Campaign{"first": first, "second": second} {
				if got := c.ForkStats(); got != wantStats {
					t.Errorf("%s campaign's fork stats %+v, fresh %+v", name, got, wantStats)
				}
			}
		})
	}
}

// TestIdenticalSubmissionsPrepareOnce: two identical submissions in
// flight together prepare one root, and both campaigns give the same
// results.
func TestIdenticalSubmissionsPrepareOnce(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Dir: t.TempDir(), Slots: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	spec := CampaignSpec{Workload: "pi", N: 12, Seed: 5, Fork: true}
	var ids [2]string
	for i := range ids {
		if ids[i], err = s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	a, b := doneCampaign(t, s, ids[0]), doneCampaign(t, s, ids[1])
	if p, r := reg.Counter("serv.roots_prepared").Value(), reg.Counter("serv.roots_reused").Value(); p != 1 || r != 1 {
		t.Errorf("serv.roots_prepared %d, serv.roots_reused %d; want 1 and 1", p, r)
	}
	if sa, sb := a.Status(), b.Status(); sa.RootReused == sb.RootReused || sa.Root != sb.Root {
		t.Errorf("statuses: root %q reused %v, root %q reused %v; want one root, reused once", sa.Root, sa.RootReused, sb.Root, sb.RootReused)
	}
	sameResults(t, "second", b.Results(), a.Results())
}

// TestRootKeys: what can change a root separates keys, what only shapes
// the plan, the scheduling or the pool does not.
func TestRootKeys(t *testing.T) {
	base := CampaignSpec{Workload: "pi", N: 10, Seed: 1, Workers: 1}
	key := func(spec CampaignSpec, slots int) rootKey {
		t.Helper()
		_, _, k, err := spec.root(slots)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k0 := key(base, 2)
	for name, edit := range map[string]func(*CampaignSpec){
		"workload": func(s *CampaignSpec) { s.Workload = "dct" },
		"scale":    func(s *CampaignSpec) { s.Scale = "small" },
		"model":    func(s *CampaignSpec) { s.Model = "pipelined" },
		"maxInsts": func(s *CampaignSpec) { s.MaxInsts = 1 << 30 },
		"fork":     func(s *CampaignSpec) { s.Fork = true },
		"taint":    func(s *CampaignSpec) { s.Taint = true },
		"profile":  func(s *CampaignSpec) { s.Profile = true },
		"flight":   func(s *CampaignSpec) { s.Flight = true },
	} {
		spec := base
		edit(&spec)
		if k := key(spec, 2); k == k0 || k.digest() == k0.digest() {
			t.Errorf("specs that differ in %s share root key %s", name, k0.digest())
		}
	}
	for name, edit := range map[string]func(*CampaignSpec){
		"name":     func(s *CampaignSpec) { s.Name = "other" },
		"tenant":   func(s *CampaignSpec) { s.Tenant = "other" },
		"weight":   func(s *CampaignSpec) { s.Weight = 5 },
		"n":        func(s *CampaignSpec) { s.N = 99 },
		"seed":     func(s *CampaignSpec) { s.Seed = 42 },
		"sampling": func(s *CampaignSpec) { s.Sampling = SampleAdaptive },
		"strata":   func(s *CampaignSpec) { s.Strata = 3 },
		"batch":    func(s *CampaignSpec) { s.Batch = 7 },
		"workers":  func(s *CampaignSpec) { s.Workers = 4 },
	} {
		spec := base
		edit(&spec)
		if k := key(spec, 2); k != k0 {
			t.Errorf("specs that differ only in %s get separate root keys", name)
		}
	}
	// Without local slots a fork campaign prepares no trunk.
	spec := base
	spec.Fork = true
	if key(spec, -1) != key(base, -1) {
		t.Error("a fork campaign without local slots keys a trunk it never builds")
	}
}

// TestRootCacheSingleFlight: a lookup of a key being prepared waits for
// that preparation instead of running its own, and a failed preparation
// is not cached.
func TestRootCacheSingleFlight(t *testing.T) {
	rc := newRootCache(nil)
	key := rootKey{program: "p", config: "c"}
	want := &campaign.Root{}
	var calls atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	prepare := func() (*campaign.Root, error) {
		calls.Add(1)
		once.Do(func() { close(started) })
		<-release
		return want, nil
	}
	type got struct {
		root   *campaign.Root
		reused bool
		err    error
	}
	first := make(chan got)
	go func() {
		root, reused, err := rc.get(key, prepare)
		first <- got{root, reused, err}
	}()
	<-started
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	root, reused, err := rc.get(key, prepare)
	g := <-first
	if g.err != nil || err != nil || g.root != want || root != want || g.reused || !reused {
		t.Fatalf("first (%p, reused %v, %v), second (%p, reused %v, %v); want %p, false then true", g.root, g.reused, g.err, root, reused, err, want)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("prepared %d times, want once", n)
	}

	fails := 0
	failing := func() (*campaign.Root, error) {
		fails++
		return nil, errors.New("golden run failed")
	}
	bad := rootKey{program: "p", config: "bad"}
	for i := 0; i < 2; i++ {
		if _, _, err := rc.get(bad, failing); err == nil {
			t.Fatal("a failed preparation returned no error")
		}
	}
	if fails != 2 || len(rc.byKey) != 1 {
		t.Fatalf("%d preparations of a failing key, %d roots cached; want 2 and 1", fails, len(rc.byKey))
	}
}

// TestRootCacheBound: the cache never holds more than maxRoots roots, and
// the one in use survives, least recently used out first.
func TestRootCacheBound(t *testing.T) {
	rc := newRootCache(nil)
	ok := func() (*campaign.Root, error) { return &campaign.Root{}, nil }
	hot := rootKey{program: "hot"}
	for i := 0; i < 3*maxRoots; i++ {
		if _, _, err := rc.get(hot, ok); err != nil {
			t.Fatal(err)
		}
		if _, _, err := rc.get(rootKey{program: fmt.Sprint(i)}, ok); err != nil {
			t.Fatal(err)
		}
		if n := len(rc.byKey); n > maxRoots {
			t.Fatalf("after %d keys the cache holds %d roots, bound %d", i+2, n, maxRoots)
		}
	}
	if _, reused, _ := rc.get(hot, ok); !reused {
		t.Error("the most recently used root was evicted")
	}
}
