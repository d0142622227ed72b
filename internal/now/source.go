package now

// ServeSource is the master side of the NoW worker protocol. The
// scheduling lives behind ExpSource — the campaign service, the only
// master — which assigns each arriving worker to a campaign, feeds it
// experiments and keeps the exactly-once ledger; this file only speaks
// the wire protocol.

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// Welcome carries the campaign parameters a worker needs to build its
// local runner: the workload identity, the serialized checkpoint, and
// every setting that can change a result — the simulator model, the
// watchdog and the fork decision — so a worker runs exactly the
// experiments the master's own runners would. Campaign tags the session
// for the source's accounting (workers echo it back implicitly by
// staying on the session).
type Welcome struct {
	Campaign   string `json:"campaign"`
	Workload   string `json:"workload"`
	Scale      int    `json:"scale"`
	Checkpoint []byte `json:"checkpoint"` // gob bytes (base64 via JSON)
	Model      string `json:"model"`
	MaxInsts   uint64 `json:"maxInsts"`
	// Fork runs the worker's experiments on the fork server (a local
	// trunk and COW snapshots) instead of replaying each from the
	// checkpoint, as the campaign's own runners do.
	Fork bool `json:"fork,omitempty"`
	// SpanTrace tells the worker the source records distributed spans:
	// each experiment arrives with a trace context, and the worker ships
	// its span records back on the result.
	SpanTrace bool `json:"spanTrace,omitempty"`
	// Flight tells the worker the source wants flight-recorder
	// post-mortems: the worker attaches a recorder and interesting
	// results arrive with Result.Postmortem populated.
	Flight bool `json:"flight,omitempty"`
	// Taint tells the worker the source tracks fault propagation: the
	// worker runs a taint tracker and every result arrives with
	// Result.Prop populated.
	Taint bool `json:"taint,omitempty"`
}

// Session is one worker's assignment to a campaign. Take, Complete and
// Heartbeat are called from that worker's serving goroutine; Close fires
// exactly once when the connection ends (normally or by death) and must
// requeue whatever was taken but never completed — the exactly-once
// ledger lives in the source. Take's context is the source-side
// experiment span the worker's spans parent under (zero when the source
// does not trace); Complete receives whatever span records the worker
// shipped back; Heartbeat notes a liveness message.
type Session interface {
	Take() (campaign.Experiment, obs.SpanContext, bool)
	Complete(campaign.Result, []obs.SpanRecord)
	Heartbeat()
	Close()
}

// ExpSource assigns arriving workers to campaigns. Open returns the
// welcome parameters and a session; ok=false tells the worker nothing
// needs running (it receives done immediately). Implementations must be
// safe for concurrent use by many connections.
type ExpSource interface {
	Open(workerName string) (Welcome, Session, bool)
}

// ServeSource accepts worker connections on ln and serves each against
// src until the listener closes; it then waits for every in-flight
// connection to drain before returning. The caller owns ln and closes
// it to stop.
func ServeSource(ln net.Listener, src ExpSource) {
	var wg sync.WaitGroup
	var id int
	for {
		raw, err := ln.Accept()
		if err != nil {
			break
		}
		id++
		name := fmt.Sprintf("conn%d-%s", id, raw.RemoteAddr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveSourceConn(name, newConn(raw), src)
		}()
	}
	wg.Wait()
}

// serveSourceConn runs the master side of one worker connection against
// the source's session.
func serveSourceConn(name string, c *conn, src ExpSource) {
	defer c.close()

	hello, err := c.recv()
	if err != nil || hello.Type != MsgHello {
		return
	}
	worker := hello.WorkerName
	if worker == "" {
		worker = name
	}
	wel, sess, ok := src.Open(worker)
	if !ok {
		// Nothing to run: answer the hello with done, which the worker
		// takes as a finished campaign.
		_ = c.send(Message{Type: MsgDone})
		return
	}
	defer sess.Close()
	if err := c.send(Message{Type: MsgWelcome, Welcome: &wel}); err != nil {
		return
	}
	for {
		msg, err := c.recv()
		if err != nil {
			return
		}
		switch msg.Type {
		case MsgFetch:
			exp, ctx, ok := sess.Take()
			if !ok {
				_ = c.send(Message{Type: MsgDone})
				return
			}
			out := Message{Type: MsgExperiment, Experiment: &exp}
			if ctx.Valid() {
				out.Trace = &ctx
			}
			if err := c.send(out); err != nil {
				return
			}
		case MsgResult:
			if msg.Result != nil {
				sess.Complete(*msg.Result, msg.Spans)
			}
		case MsgHeartbeat:
			sess.Heartbeat()
		default:
			_ = c.send(Message{Type: MsgError, Error: "unexpected " + msg.Type})
			return
		}
	}
}
