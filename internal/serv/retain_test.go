package serv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/prof"
)

// TestFinishedCampaignKeepsProfileAndTaint: a finished campaign has
// released its runner pool, yet its merged profile and freshest taint
// report still answer, directly and through the campaign-keyed /profile
// and /taint endpoints.
func TestFinishedCampaignKeepsProfileAndTaint(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(CampaignSpec{Workload: "pi", N: 6, Seed: 3, Workers: 2, Profile: true, Taint: true})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Wait(id, waitBound) {
		t.Fatal("campaign did not finish")
	}
	c, _ := s.Campaign(id)
	if st := c.Status(); st.Phase != PhaseDone {
		t.Fatalf("phase %s (err %s)", st.Phase, st.Error)
	}
	c.mu.Lock()
	released := c.pool == nil
	c.mu.Unlock()
	if !released {
		t.Fatal("finished campaign still holds its runner pool")
	}

	p := c.Profile()
	if p == nil || p.TotalInsts == 0 || len(p.PCs) == 0 {
		t.Fatalf("finished campaign's profile is empty: %+v", p)
	}
	if c.TaintReport() == nil {
		t.Fatal("finished campaign lost its taint report")
	}

	resp, err := http.Get(ts.URL + "/profile?format=json&campaign=" + id)
	if err != nil {
		t.Fatal(err)
	}
	var served prof.Profile
	err = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("/profile: %d, %v", resp.StatusCode, err)
	}
	if served.TotalInsts != p.TotalInsts {
		t.Fatalf("/profile serves %d insts, Profile() %d", served.TotalInsts, p.TotalInsts)
	}
	resp, err = http.Get(ts.URL + "/taint?campaign=" + id)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/taint: %d %s", resp.StatusCode, body)
	}
}

// TestFinishedCampaignReleasesPool is the retention bound: after each of
// eight sequential fork campaigns the finished campaign holds no pool
// (and with it no simulator, fork snapshot or checkpoint), and the in-use heap grows by less than 1 MiB per finished
// campaign. A service that kept its pools grew by several MiB each.
func TestFinishedCampaignReleasesPool(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)

	const campaigns = 8
	var heap [campaigns]uint64
	for i := range heap {
		id, err := s.Submit(CampaignSpec{Workload: "pi", N: 4, Seed: int64(7 + i), Workers: 2, Fork: true})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Wait(id, waitBound) {
			t.Fatalf("campaign %s did not finish", id)
		}
		c, _ := s.Campaign(id)
		c.mu.Lock()
		phase, pool := c.phase, c.pool
		c.mu.Unlock()
		if phase != PhaseDone {
			t.Fatalf("campaign %s: phase %s", id, phase)
		}
		if pool != nil {
			t.Fatalf("finished campaign %s holds its pool of %d runners", id, pool.Size())
		}
		heap[i] = liveHeap()
	}
	// The first campaign warms process-wide state; count from the second.
	perCampaign := (float64(heap[campaigns-1]) - float64(heap[1])) / (campaigns - 2)
	t.Logf("in-use heap after each campaign (MiB): %.2f; growth %.3f MiB per campaign",
		mib(heap[:]), perCampaign/(1<<20))
	if perCampaign >= 1<<20 {
		t.Fatalf("in-use heap grows %.2f MiB per finished campaign, want < 1", perCampaign/(1<<20))
	}
}

// liveHeap is the in-use heap after a full collection. The short sleep
// lets the last experiment goroutine, which completed the campaign,
// return and drop its runner.
func liveHeap() uint64 {
	time.Sleep(20 * time.Millisecond)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mib(bs []uint64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = float64(b) / (1 << 20)
	}
	return out
}
