package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/serv"
	"repro/internal/sim"
	"repro/internal/workloads"
)

const (
	serveGuest = "pi"
	// drainBound is the Shutdown bound gemfi-serve uses.
	drainBound = 30 * time.Second
)

// streamResult is what the client reads of a streamed result.
type streamResult struct {
	ID         int              `json:"id"`
	Outcome    int              `json:"outcome"`
	Insts      uint64           `json:"insts"`
	WallNs     int64            `json:"wallNs"`
	CrashCause string           `json:"crashCause"`
	PhaseNS    map[string]int64 `json:"phaseNs"`
}

// submission is one campaign pushed through the service by the client,
// with times measured from the start of the POST.
type submission struct {
	submit, running, first, done time.Duration
	results                      []streamResult
}

// service is one serv.Service behind an HTTP test server, and the one
// client connection that talks to it.
type service struct {
	dir    string
	svc    *serv.Service
	ts     *httptest.Server
	client *http.Client
	subs   []submission // the kept submissions
}

// doneSecs lists the submissions' seconds from submit to done.
func doneSecs(subs []submission) []float64 {
	var secs []float64
	for _, sub := range subs {
		secs = append(secs, sub.done.Seconds())
	}
	return secs
}

// serveConfig is gemfi-serve's configuration with as many slots as the
// reference box has cores; spans are on by default there.
func serveConfig(dir string, spans bool) serv.Config {
	cfg := serv.Config{Dir: dir, Slots: 2, Metrics: obs.NewRegistry()}
	if spans {
		cfg.Spans = obs.NewSpanRecorder()
	}
	return cfg
}

func (e *env) openService(dir string, spans bool) (*service, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s := &service{dir: dir}
	var err error
	e.tr.timed("serv.New", func() { s.svc, err = serv.New(serveConfig(dir, spans)) })
	if err != nil {
		return nil, err
	}
	s.ts = httptest.NewServer(s.svc.Handler())
	s.client = s.ts.Client()
	return s, nil
}

// shutdown stops the HTTP server and drains the service.
func (e *env) shutdown(s *service) (time.Duration, error) {
	s.ts.Close()
	var err error
	d := e.tr.timed("Service.Shutdown", func() { err = s.svc.Shutdown(drainBound) })
	return d, err
}

// submit posts one campaign and watches its event stream until done.
func (e *env) submit(s *service, spec serv.CampaignSpec) (submission, error) {
	var sub submission
	body, err := json.Marshal(spec)
	if err != nil {
		return sub, err
	}
	gcBeforeTiming()
	start := time.Now()
	var created struct {
		ID string `json:"id"`
	}
	sub.submit = e.tr.timed("POST /campaigns", func() {
		var resp *http.Response
		if resp, err = s.client.Post(s.ts.URL+"/campaigns", "application/json", bytes.NewReader(body)); err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			err = fmt.Errorf("POST /campaigns: %s", resp.Status)
			return
		}
		err = json.NewDecoder(resp.Body).Decode(&created)
	})
	if err != nil {
		return sub, err
	}
	e.tr.timed("GET /campaigns/{id}/stream", func() {
		var resp *http.Response
		if resp, err = s.client.Get(s.ts.URL + "/campaigns/" + created.ID + "/stream"); err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		var event string
		for sc.Scan() {
			line := sc.Text()
			if ev, ok := strings.CutPrefix(line, "event: "); ok {
				event = ev
				continue
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			switch event {
			case "result":
				var r streamResult
				if err = json.Unmarshal([]byte(data), &r); err != nil {
					return
				}
				if len(sub.results) == 0 {
					sub.first = time.Since(start)
				}
				sub.results = append(sub.results, r)
			case "status":
				if sub.running == 0 && strings.Contains(data, `"phase":"`+serv.PhaseRunning+`"`) {
					sub.running = time.Since(start)
				}
			case "done":
				sub.done = time.Since(start)
				return
			}
		}
		if err = sc.Err(); err == nil {
			err = fmt.Errorf("campaign %s: stream ended without a done event after %d results", created.ID, len(sub.results))
		}
	})
	return sub, err
}

// checkSubmission verifies that every experiment was streamed exactly
// once and classified as expected.json says.
func (e *env) checkSubmission(sub submission, spec serv.CampaignSpec) {
	digits := bytes.Repeat([]byte{'0'}, spec.N)
	var insts uint64
	var dup []int
	for _, r := range sub.results {
		// The service numbers a campaign's experiments from 1, in corpus order.
		if r.ID < 1 || r.ID > spec.N || digits[r.ID-1] != '0' {
			dup = append(dup, r.ID)
			continue
		}
		digits[r.ID-1] = byte('0' + r.Outcome)
		insts += r.Insts
	}
	if len(dup) > 0 {
		e.ops(spec.N, len(dup), fmt.Sprintf("serve: results streamed twice or out of range: %v", dup))
		return
	}
	key := fmt.Sprintf("campaign/%s/%s/%s/fork/n%d/x%d", spec.Scale, spec.Workload, spec.Model, spec.N, watchdogX)
	failed, problem := e.exp.checkCampaign(key, campExpect{Outcomes: string(digits), Insts: insts})
	e.ops(spec.N, failed, problem)
}

// dirBytes is the size of all files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func (e *env) runServeCampaign() error {
	// The service's default scale, in the quick configuration too: the
	// point is many sub-millisecond experiments.
	e.sz.scale = workloads.ScaleTest
	golden, _, err := e.goldenRun(serveGuest)
	if err != nil {
		return err
	}
	spec := serv.CampaignSpec{
		Workload: serveGuest, Scale: e.sz.scaleName(), Model: string(sim.ModelAtomic),
		MaxInsts: watchdogX * golden, Sampling: serv.SampleUniform, N: e.sz.serveN, Seed: corpusSeed,
		Workers: 2, Fork: true,
	}
	// The service takes its campaigns one at a time from one client, so
	// the seed has nothing to order; it labels the submissions.
	rng := rand.New(rand.NewSource(e.seed))
	label := fmt.Sprintf("bench-%08x", rng.Uint32())
	// run makes one submission; check also verifies it and counts its
	// experiments as operations.
	run := func(s *service, name string) (submission, error) {
		spec.Name = label + "-" + name
		return e.submit(s, spec)
	}
	check := func(s *service, name string) (submission, error) {
		sub, err := run(s, name)
		if err == nil {
			e.checkSubmission(sub, spec)
		}
		return sub, err
	}

	main, err := e.openService(filepath.Join(e.outDir, "serve-journal"), true)
	if err != nil {
		return err
	}
	e.tr.timed("warm-up", func() { _, err = run(main, "warm") })
	if err != nil {
		return err
	}

	var bare *service       // the same service without its span recorder
	var paused []submission // submissions to main made with the tracer paused
	if e.tr == nil {
		e.tr.timed("reps", func() {
			for i := 0; i < e.sz.serveSubs && err == nil; i++ {
				var sub submission
				sub, err = check(main, fmt.Sprint(i))
				main.subs = append(main.subs, sub)
			}
		})
	} else {
		if bare, err = e.openService(filepath.Join(e.outDir, "serve-journal-nospans"), false); err != nil {
			return err
		}
		if _, err = run(bare, "warm"); err != nil {
			return err
		}
		e.tr.timed("reps", func() {
			for i := 0; i < e.sz.probeReps && err == nil; i++ {
				e.tr.setRep(i + 1)
				var a, b, c submission
				if a, err = check(main, fmt.Sprint(i)); err != nil {
					return
				}
				resume := e.tr.pause()
				if b, err = check(main, fmt.Sprint(i, "-untraced")); err == nil {
					c, err = check(bare, fmt.Sprint(i))
				}
				resume()
				main.subs, paused, bare.subs = append(main.subs, a), append(paused, b), append(bare.subs, c)
			}
		})
	}
	if err != nil {
		return err
	}
	journaled := (1 + len(main.subs) + len(paused)) * spec.N

	journalBytes, err := dirBytes(main.dir)
	if err != nil {
		return err
	}
	shutdown, err := e.shutdown(main)
	if err != nil {
		return err
	}
	if bare != nil {
		if _, err := e.shutdown(bare); err != nil {
			return err
		}
		if err := os.RemoveAll(bare.dir); err != nil {
			return err
		}
	}

	// Restart and recovery: reopen the journal this run wrote.
	var reopens []float64
	e.tr.timed("reopen", func() {
		for i := 0; i < e.sz.serveReopens && err == nil; i++ {
			gcBeforeTiming()
			var svc *serv.Service
			reopens = append(reopens, e.tr.timed("serv.New", func() { svc, err = serv.New(serveConfig(main.dir, true)) }).Seconds())
			if err == nil {
				e.tr.timed("Service.Shutdown", func() { err = svc.Shutdown(drainBound) })
			}
		}
	})
	if err != nil {
		return err
	}
	if err := os.RemoveAll(main.dir); err != nil {
		return err
	}

	if e.tr == nil {
		e.serveEndToEnd(main, reopens)
		return nil
	}
	local, err := e.localPool(spec)
	if err != nil {
		return err
	}
	e.serveLayers(main, bare, paused, local, reopens, shutdown, float64(journalBytes)/float64(journaled), journaled)
	return nil
}

// serveEndToEnd reports the five end-to-end metrics of serve-campaign.
func (e *env) serveEndToEnd(s *service, reopens []float64) {
	n := float64(e.sz.serveN)
	var insts uint64
	for _, r := range s.subs[0].results {
		insts += r.Insts
	}
	var first []float64
	for _, sub := range s.subs {
		first = append(first, sub.first.Seconds())
	}
	done := statOf(doneSecs(s.subs), "s")
	e.set("exps_per_sec", done.rate(n, "1/s"))
	e.set("guest_mips", done.rate(float64(insts)/1e6, "Minst/s"))
	e.set("first_result_ms", statOf(first, "s").scaled(1e3, "ms"))
	e.set("setup_s", statOf(reopens, "s"))
	fmt.Printf("%d submissions of %d experiments: submit to done median %.4f s; %d journal reopens, median %.4f s\n",
		done.N, e.sz.serveN, done.Value, len(reopens), median(reopens))
}

// localPool runs the identical draw on a plain campaign.Pool, without the
// service: what is left of a submission's time is the service's own.
func (e *env) localPool(spec serv.CampaignSpec) ([]float64, error) {
	var secs []float64
	for r := 0; r < e.sz.probeReps; r++ {
		w, _, err := e.loadGuest(spec.Workload)
		if err != nil {
			return nil, err
		}
		cfg := sim.Config{Model: sim.ModelKind(spec.Model), EnableFI: true, MaxInsts: spec.MaxInsts}
		var pool *campaign.Pool
		e.tr.timed("campaign.NewPool", func() { pool, err = campaign.NewPool(w, spec.Workers, campaign.RunnerOptions{Cfg: &cfg}) })
		if err != nil {
			return nil, err
		}
		e.tr.timed("Pool.EnableFork", func() { err = pool.EnableFork(campaign.DefaultForkOptions()) })
		if err != nil {
			return nil, err
		}
		exps := campaign.GenerateUniform(spec.N, campaign.GenConfig{WindowInsts: pool.Runner().WindowInsts, Seed: spec.Seed})
		gcBeforeTiming()
		var results []campaign.Result
		secs = append(secs, e.tr.timed("Pool.RunAll", func() { results = pool.RunAll(exps) }).Seconds())
		sub := submission{}
		for _, r := range results {
			sub.results = append(sub.results, streamResult{ID: r.ID + 1, Outcome: int(r.Outcome), Insts: r.Insts})
		}
		e.checkSubmission(sub, spec)
	}
	return secs, nil
}

// serveLayers reports the per-layer metrics a traced serve-campaign run
// measures.
func (e *env) serveLayers(main, bare *service, paused []submission, local, reopens []float64, shutdown time.Duration, bytesPerResult float64, journaled int) {
	n := float64(e.sz.serveN)
	var submit, prepare, steady, run []float64
	acct := &expAccount{}
	for _, sub := range main.subs {
		submit = append(submit, sub.submit.Seconds()*1e3)
		if sub.running > 0 {
			prepare = append(prepare, sub.running.Seconds()*1e3)
			run = append(run, (sub.done - sub.running).Seconds())
		}
		steady = append(steady, (n-1)/(sub.done-sub.first).Seconds())
		for _, r := range sub.results {
			acct.add(r.WallNs, r.CrashCause, r.PhaseNS)
		}
	}
	done := median(doneSecs(main.subs))
	e.set("trace.overhead_pct", exact(pct(done, median(doneSecs(paused))), "%"))
	e.set("obs.span_overhead_pct", exact(pct(done, median(doneSecs(bare.subs))), "%"))
	e.set("serv.submit_ms", statOf(submit, "ms"))
	e.set("serv.prepare_ms", statOf(prepare, "ms"))
	e.set("serv.steady_exps_per_sec", statOf(steady, "1/s"))
	e.set("serv.per_exp_overhead_us", exact((median(run)-median(local))/n*1e6, "us"))
	e.set("serv.journal_bytes_per_result", exact(bytesPerResult, "B/result"))
	e.set("serv.reopen_ms_per_10k", exact(median(reopens)*1e3*1e4/float64(journaled), "ms/10k"))
	e.set("serv.shutdown_ms", exact(shutdown.Seconds()*1e3, "ms"))
	acct.report(e)
}
