package gemfi

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/now"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow end
// to end through the façade only.
func TestPublicAPIQuickstart(t *testing.T) {
	prog, err := CompileC(`
int out[1];
int main() {
    fi_checkpoint();
    fi_activate(0);
    int s = 0;
    for (int i = 0; i < 100; i = i + 1) { s = s + i; }
    out[0] = s;
    fi_activate(0);
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulator(SimConfig{Model: ModelAtomic, EnableFI: true, MaxInsts: 1_000_000})
	if err := s.Load(prog); err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Failed() {
		t.Fatalf("%+v", r)
	}
	v, err := s.ReadMem64(prog.MustSymbol("out"))
	if err != nil || v != 4950 {
		t.Fatalf("out = %d, %v", v, err)
	}
}

func TestPublicAPIAssembler(t *testing.T) {
	prog, err := Assemble(`
_start:
    li  a0, 7
    li  v0, 1
    callsys
`)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulator(SimConfig{Model: ModelPipelined, EnableFI: false, MaxInsts: 100_000})
	if err := s.Load(prog); err != nil {
		t.Fatal(err)
	}
	if r := s.Run(); !r.Exited || r.ExitStatus != 7 {
		t.Fatalf("%+v", r)
	}
}

func TestPublicAPIFaultRoundTrip(t *testing.T) {
	f, err := ParseFault("RegisterInjectedFault Inst:2457 Flip:21 Threadid:0 system.cpu1 occ:1 int 1")
	if err != nil {
		t.Fatal(err)
	}
	if f.Loc != LocIntReg || f.Bit != 21 {
		t.Fatalf("%+v", f)
	}
	fs, err := ParseFaults(strings.NewReader(f.String() + "\n# comment\n"))
	if err != nil || len(fs) != 1 {
		t.Fatalf("%v %v", fs, err)
	}
}

func TestPublicAPICampaign(t *testing.T) {
	w, err := WorkloadByName("pi", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewCampaignRunner(w, campaign.RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exps := GenerateUniform(5, campaign.GenConfig{WindowInsts: runner.WindowInsts, Seed: 4})
	for _, e := range exps {
		res := runner.Run(e)
		if res.Outcome < OutcomeCrashed || res.Outcome > OutcomeSDC {
			t.Fatalf("unclassified outcome: %+v", res)
		}
	}
}

func TestPublicAPISampleSize(t *testing.T) {
	if n := SampleSize(2950, 0.99, 0.01, 0.5); n < 2400 || n > 2600 {
		t.Fatalf("SampleSize = %d", n)
	}
}

// TestPublicAPINoW runs a campaign on NoW workers through the façade: the
// campaign service is the master and runs nothing locally.
func TestPublicAPINoW(t *testing.T) {
	s, err := NewCampaignService(ServiceConfig{Dir: t.TempDir(), Slots: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	id, err := s.Submit(CampaignSpec{Workload: "pi", N: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !s.WaitPrepared(id, time.Minute) {
		t.Fatal("golden run did not finish")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	s.ServeWorkers(ln)
	worker := NewNoWWorker(now.WorkerConfig{Addr: ln.Addr().String(), Slots: 2})
	if n, err := worker.Run(); err != nil || n != 4 {
		t.Fatalf("worker ran %d of 4 experiments: %v", n, err)
	}
	if !s.Wait(id, time.Minute) {
		t.Fatal("campaign did not finish")
	}
	if c, _ := s.Campaign(id); len(c.Results()) != 4 {
		t.Fatalf("results = %d", len(c.Results()))
	}
}

func TestWorkloadsListedInPaperOrder(t *testing.T) {
	ws := Workloads(ScaleTest)
	if len(ws) != 6 {
		t.Fatalf("workloads = %d", len(ws))
	}
	want := []string{"dct", "jacobi", "pi", "knapsack", "deblock", "canneal"}
	for i, w := range ws {
		if w.Name != want[i] {
			t.Errorf("workload %d = %s, want %s", i, w.Name, want[i])
		}
	}
}
