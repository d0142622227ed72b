// Package httpserv is the live observability surface: an opt-in HTTP
// server that exposes a running simulation or campaign without
// touching its hot loop. Endpoints:
//
//	/metrics  — the obs.Registry in Prometheus text exposition format
//	/status   — live campaign / NoW-master status JSON (queue depth,
//	            in-flight, per-worker liveness, classification counts)
//	/profile  — the current guest profile (text top-N by default,
//	            ?format=json or ?format=folded)
//	/taint    — the most recent fault-propagation report (JSON by
//	            default, ?format=dot for Graphviz, ?format=text)
//	/traces   — recent span traces (newest first; filterable with
//	            ?verdict=, ?tenant=, ?worker= against root attributes,
//	            ?since= unix-nanos, ?postmortems=1 for dump-carrying
//	            experiments; ?limit=/?n= bounds)
//	/trace/{id} — one trace's full span tree (JSON by default,
//	            ?format=text for an indented timeline)
//	/postmortem/{id} — one experiment's flight-recorder dump (JSON by
//	            default, ?format=text for the disassembled timeline)
//	/debug/pprof/... — Go's net/http/pprof for the simulator itself
//
// Servers hosting several campaigns at once (the campaign service) wire
// the keyed ProfileFor/TaintFor/StatusFor sources; /profile, /taint and
// /status then select by ?campaign=<id> instead of returning whichever
// campaign finished an experiment most recently.
//
// Every endpoint pulls state on request (registry snapshots, profiler
// atomic loads, status callbacks), so an idle server costs nothing and
// a scraped one costs only the scrape. ZOFI's observability rule —
// measurement must not distort the measured run — is preserved: with
// no -http flag none of this package is even linked into the hot path.
package httpserv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/prof"
	"repro/internal/taint"
)

// Config wires the server's data sources; any nil/absent field just
// disables its endpoint (it answers 404 with an explanatory body).
type Config struct {
	// Metrics backs /metrics.
	Metrics *obs.Registry
	// Status, when set, is invoked per /status request and its result
	// rendered as JSON. Implementations must be safe to call while the
	// campaign runs (serv.Service.Campaigns).
	Status func() any
	// Profile, when set, is invoked per /profile request; it should
	// return a live snapshot (prof.Profiler.Snapshot, or a merge across
	// campaign runners).
	Profile func() *prof.Profile
	// Taint, when set, is invoked per /taint request; it should return
	// the most recent propagation report (sim.TaintReport, or
	// campaign.Pool.TaintReport for the freshest across workers). A nil
	// return means no experiment has produced one yet.
	Taint func() *taint.PropReport
	// StatusFor / ProfileFor / TaintFor, when set, serve requests that
	// carry a ?campaign=<id> query — a multi-campaign host answers with
	// that campaign's data instead of the freshest global. The boolean
	// reports whether the campaign exists (false: 404).
	StatusFor  func(campaign string) (any, bool)
	ProfileFor func(campaign string) (*prof.Profile, bool)
	TaintFor   func(campaign string) (*taint.PropReport, bool)
	// Spans backs /traces and /trace/{id} — the live distributed-trace
	// surface over the recorder's recent-trace ring.
	Spans *obs.SpanRecorder
	// Postmortem backs /postmortem/{id} and the ?postmortems=1 filter on
	// /traces: it resolves an experiment's trace ID (or a host-specific
	// key) to its flight-recorder dump. The boolean reports whether a
	// dump exists for the ID.
	Postmortem func(id string) (*flight.Postmortem, bool)
	// TopN bounds the /profile text table (0 = default 30).
	TopN int
}

// traceSummary is one /traces row: enough to pick a trace to drill
// into without shipping every span of every recent trace.
type traceSummary struct {
	TraceID    string `json:"traceId"`
	Name       string `json:"name"`
	StartNS    int64  `json:"startUnixNano"`
	DurationNS int64  `json:"durationNs"`
	Spans      int    `json:"spans"`
	Outcome    string `json:"outcome,omitempty"`
	Tenant     string `json:"tenant,omitempty"`
	Worker     string `json:"worker,omitempty"`
	Campaign   string `json:"campaign,omitempty"`
	ExpID      any    `json:"expId,omitempty"`
}

func rootAttr(root *obs.SpanRecord, key string) string {
	if v, ok := root.Attrs[key]; ok {
		return fmt.Sprint(v)
	}
	return ""
}

// rootMatches applies the /traces filters: every non-empty wanted value
// must equal the root span's attribute of the same name.
func rootMatches(root *obs.SpanRecord, want map[string]string) bool {
	for key, v := range want {
		if v != "" && rootAttr(root, key) != v {
			return false
		}
	}
	return true
}

func summarize(tr *obs.Trace, root *obs.SpanRecord) traceSummary {
	return traceSummary{
		TraceID:    tr.ID,
		Name:       root.Name,
		StartNS:    root.StartNS,
		DurationNS: root.DurationNS(),
		Spans:      len(tr.Spans),
		Outcome:    rootAttr(root, "outcome"),
		Tenant:     rootAttr(root, "tenant"),
		Worker:     rootAttr(root, "worker"),
		Campaign:   rootAttr(root, "campaign"),
		ExpID:      root.Attrs["exp_id"],
	}
}

// Server is a running observability HTTP server.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Handler builds the observability mux for the given sources. Exported
// so hosts with their own HTTP surface (the campaign service) can mount
// these endpoints alongside their API instead of running a second
// server.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	// endpoints collects every registered path with a one-line help
	// string; the landing page enumerates it so "/" always reflects what
	// this server actually serves instead of a hardcoded subset.
	type endpoint struct{ path, help string }
	var endpoints []endpoint
	handle := func(path, help string, h http.HandlerFunc) {
		endpoints = append(endpoints, endpoint{path, help})
		mux.HandleFunc(path, h)
	}
	handle("/metrics", "obs.Registry in Prometheus text exposition format", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Metrics == nil {
			http.Error(w, "no metrics registry attached (run with -metrics or attach SimConfig.Metrics)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = cfg.Metrics.WriteProm(w)
	})
	handle("/status", "live campaign / NoW-master status JSON (?campaign=<id> on multi-campaign hosts)", func(w http.ResponseWriter, req *http.Request) {
		var st any
		if key := req.URL.Query().Get("campaign"); key != "" {
			if cfg.StatusFor == nil {
				http.Error(w, "this server hosts no per-campaign status", http.StatusNotFound)
				return
			}
			var ok bool
			if st, ok = cfg.StatusFor(key); !ok {
				http.Error(w, "unknown campaign "+key, http.StatusNotFound)
				return
			}
		} else {
			if cfg.Status == nil {
				http.Error(w, "no status source attached", http.StatusNotFound)
				return
			}
			st = cfg.Status()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	handle("/profile", "guest profile (text top-N; ?format=json|folded; ?campaign=<id>)", func(w http.ResponseWriter, req *http.Request) {
		var p *prof.Profile
		if key := req.URL.Query().Get("campaign"); key != "" {
			if cfg.ProfileFor == nil {
				http.Error(w, "this server hosts no per-campaign profiles", http.StatusNotFound)
				return
			}
			var ok bool
			if p, ok = cfg.ProfileFor(key); !ok {
				http.Error(w, "unknown campaign "+key, http.StatusNotFound)
				return
			}
		} else {
			if cfg.Profile == nil {
				http.Error(w, "no profiler attached (run with -profile)", http.StatusNotFound)
				return
			}
			p = cfg.Profile()
		}
		if p == nil {
			http.Error(w, "profile not available yet", http.StatusServiceUnavailable)
			return
		}
		switch req.URL.Query().Get("format") {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			_ = p.WriteJSON(w)
		case "folded":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = p.WriteFolded(w)
		default:
			n := cfg.TopN
			if s := req.URL.Query().Get("n"); s != "" {
				if v, err := strconv.Atoi(s); err == nil {
					n = v
				}
			}
			if n <= 0 {
				n = 30
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = p.WriteTop(w, n)
		}
	})
	handle("/taint", "fault-propagation report (JSON; ?format=dot|text; ?campaign=<id>)", func(w http.ResponseWriter, req *http.Request) {
		var rep *taint.PropReport
		if key := req.URL.Query().Get("campaign"); key != "" {
			if cfg.TaintFor == nil {
				http.Error(w, "this server hosts no per-campaign taint reports", http.StatusNotFound)
				return
			}
			var ok bool
			if rep, ok = cfg.TaintFor(key); !ok {
				http.Error(w, "unknown campaign "+key, http.StatusNotFound)
				return
			}
		} else {
			if cfg.Taint == nil {
				http.Error(w, "no taint tracker attached (run with -taint)", http.StatusNotFound)
				return
			}
			rep = cfg.Taint()
		}
		if rep == nil {
			http.Error(w, "no propagation report yet (no experiment has finished)", http.StatusServiceUnavailable)
			return
		}
		switch req.URL.Query().Get("format") {
		case "dot":
			w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
			_ = rep.WriteDOT(w)
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = rep.WriteText(w)
		default:
			w.Header().Set("Content-Type", "application/json")
			_ = rep.WriteJSON(w)
		}
	})
	handle("/traces", "recent span traces (?verdict=|?tenant=|?worker= filter on root attrs; ?since= unix-nanos; ?postmortems=1; ?limit=/?n= bounds)", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Spans == nil {
			http.Error(w, "no span recorder attached (run with -spans)", http.StatusNotFound)
			return
		}
		q := req.URL.Query()
		limit := 50
		for _, key := range []string{"n", "limit"} { // limit is the alias
			if s := q.Get(key); s != "" {
				if v, err := strconv.Atoi(s); err == nil && v > 0 {
					limit = v
				}
			}
		}
		var since int64
		if s := q.Get("since"); s != "" {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since (want unix nanoseconds): "+err.Error(), http.StatusBadRequest)
				return
			}
			since = v
		}
		wantPM := q.Get("postmortems") == "1" || q.Get("postmortems") == "true"
		if wantPM && cfg.Postmortem == nil {
			http.Error(w, "this server hosts no post-mortems (run with -flight)", http.StatusNotFound)
			return
		}
		want := map[string]string{
			"outcome": q.Get("verdict"),
			"tenant":  q.Get("tenant"),
			"worker":  q.Get("worker"),
		}
		out := make([]traceSummary, 0, limit)
		for _, tr := range cfg.Spans.Traces() {
			root := tr.Root()
			if root == nil || !rootMatches(root, want) {
				continue
			}
			if since != 0 && root.StartNS < since {
				continue
			}
			if wantPM {
				if _, ok := cfg.Postmortem(tr.ID); !ok {
					continue
				}
			}
			out = append(out, summarize(tr, root))
			if len(out) >= limit {
				break
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	handle("/trace/", "one trace's span tree by ID (JSON; ?format=text for a timeline)", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Spans == nil {
			http.Error(w, "no span recorder attached (run with -spans)", http.StatusNotFound)
			return
		}
		id := strings.TrimPrefix(req.URL.Path, "/trace/")
		if id == "" {
			http.Error(w, "usage: /trace/{trace-id}", http.StatusBadRequest)
			return
		}
		tr := cfg.Spans.TraceByID(id)
		if tr == nil {
			http.Error(w, "unknown trace "+id+" (evicted, sampled out, or still in flight)", http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = tr.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tr)
	})
	handle("/postmortem/", "one experiment's flight-recorder dump by trace ID (JSON; ?format=text for the disassembled timeline)", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Postmortem == nil {
			http.Error(w, "no post-mortem source attached (run with -flight)", http.StatusNotFound)
			return
		}
		id := strings.TrimPrefix(req.URL.Path, "/postmortem/")
		if id == "" {
			http.Error(w, "usage: /postmortem/{trace-id}", http.StatusBadRequest)
			return
		}
		pm, ok := cfg.Postmortem(id)
		if !ok {
			http.Error(w, "no post-mortem for "+id+" (masked outcome, flight recording off, or evicted)", http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = pm.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = pm.WriteJSON(w)
	})
	handle("/debug/pprof/", "Go net/http/pprof for the simulator process", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "gemfi observability server\n\nendpoints:\n")
		for _, ep := range endpoints {
			fmt.Fprintf(w, "  %-14s %s\n", ep.path, ep.help)
		}
	})
	return mux
}

// New builds and starts the server on addr (e.g. ":8080" or
// "127.0.0.1:0"). It returns once the listener is bound, so Addr is
// immediately valid; serving continues in a background goroutine.
func New(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpserv: %w", err)
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: Handler(cfg), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (resolves ":0" requests).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns a dialable http:// base URL for the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server and waits for the serve goroutine to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
