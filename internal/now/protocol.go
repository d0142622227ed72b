// Package now implements GemFI's campaign distribution over a Network of
// Workstations (Section III.E of the paper). The paper uses shell scripts
// and an NFS share; fileshare.go keeps that mechanism literally, and the
// rest of the package replaces the share with a TCP protocol that plays
// the same role:
//
//  1. the master holds the fault configurations of all experiments;
//  2. a simulation is executed up to the fi_read_init_all point and the
//     checkpoint is stored on the master;
//  3. each worker gets a local copy of the checkpoint when it connects;
//  4. workers repeatedly fetch one remaining experiment, execute it
//     locally from the checkpointed state, and send the result back;
//  5. until no experiments are left.
//
// The master is the campaign service (internal/serv), which holds the
// queue and journals every result; this package holds the wire protocol
// (ServeSource), the worker and the file share. Workers that die
// mid-experiment have their assignments re-queued, which is what makes
// campaigns safe on non-dedicated machines.
package now

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Message is the single wire envelope; Type selects which fields are
// meaningful. One JSON object per line.
type Message struct {
	Type string `json:"type"`

	// hello (worker -> master); WorkerName also rides on heartbeats
	WorkerName string `json:"workerName,omitempty"`

	// welcome (master -> worker)
	Campaign    string `json:"campaign,omitempty"` // the session's campaign
	Workload    string `json:"workload,omitempty"`
	Scale       int    `json:"scale,omitempty"`
	Checkpoint  []byte `json:"checkpoint,omitempty"` // gob bytes (base64 via JSON)
	WindowInsts uint64 `json:"windowInsts,omitempty"`
	Model       string `json:"model,omitempty"`
	MaxInsts    uint64 `json:"maxInsts,omitempty"`

	// welcome (master -> worker): master records spans; workers should
	// record their side of each experiment and ship it back on results
	SpanTrace bool `json:"spanTrace,omitempty"`

	// welcome (master -> worker): the source wants flight-recorder
	// post-mortems; workers attach a recorder and ship dumps back on the
	// results of interesting experiments (Result.Postmortem)
	Flight bool `json:"flight,omitempty"`

	// welcome (master -> worker): the source tracks fault propagation;
	// workers run a taint tracker and ship the verdict summary back on
	// every result (Result.Prop)
	Taint bool `json:"taint,omitempty"`

	// experiment (master -> worker)
	Experiment *campaign.Experiment `json:"experiment,omitempty"`

	// experiment (master -> worker): distributed-trace context — the
	// master's experiment span, under which the worker's spans parent
	Trace *obs.SpanContext `json:"trace,omitempty"`

	// result (worker -> master)
	Result *campaign.Result `json:"result,omitempty"`

	// result (worker -> master): the worker-side span records of the
	// experiment, stitched into the master's trace on arrival
	Spans []obs.SpanRecord `json:"spans,omitempty"`

	// error (either direction)
	Error string `json:"error,omitempty"`
}

// SimConfig is the simulator configuration every NoW party builds its
// runner from — the campaign service for its golden pass and local
// experiments, workers and file-share workers for theirs — so remote
// verdicts match a local runner's. Block translation speeds up the
// atomic golden passes and post-resolve tails; a zero maxInsts lets the
// runner derive the watchdog from the golden run.
func SimConfig(model string, maxInsts uint64) sim.Config {
	return sim.Config{Model: sim.ModelKind(model), EnableFI: true, MaxInsts: maxInsts,
		EnableBlockTranslation: true}
}

// Message types.
const (
	MsgHello      = "hello"
	MsgWelcome    = "welcome"
	MsgFetch      = "fetch"
	MsgExperiment = "experiment"
	MsgResult     = "result"
	MsgHeartbeat  = "heartbeat"
	MsgDone       = "done"
	MsgError      = "error"
)

// conn wraps a net.Conn with line-delimited JSON framing. Sends are
// mutex-serialized because a worker slot's heartbeat goroutine shares the
// connection with its fetch/result loop; receives stay single-reader.
type conn struct {
	raw net.Conn
	r   *bufio.Scanner
	wmu sync.Mutex
	w   *bufio.Writer
}

// maxLine bounds a single message (checkpoints ride in one line).
const maxLine = 256 << 20

func newConn(raw net.Conn) *conn {
	sc := bufio.NewScanner(raw)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	return &conn{raw: raw, r: sc, w: bufio.NewWriterSize(raw, 64<<10)}
}

// send writes one message; safe for concurrent callers.
func (c *conn) send(m Message) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("now: marshal: %w", err)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.Write(append(b, '\n')); err != nil {
		return err
	}
	return c.w.Flush()
}

// recv reads one message.
func (c *conn) recv() (Message, error) {
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return Message{}, err
		}
		return Message{}, fmt.Errorf("now: connection closed")
	}
	var m Message
	if err := json.Unmarshal(c.r.Bytes(), &m); err != nil {
		return Message{}, fmt.Errorf("now: bad message: %w", err)
	}
	return m, nil
}

func (c *conn) close() { _ = c.raw.Close() }
