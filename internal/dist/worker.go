package dist

// The shard worker: one process (or in-process goroutine, for tests)
// owning a contiguous node range [lo, hi) of the mesh. It holds a full
// machine seeded from the coordinator's snapshot, but steps only its
// owned chips; the local network is never stepped — it serves purely as
// the chips' mailbox, fed by coordinator deliveries (noc.Deliver) and
// drained by the chips' own network input path. Everything the chips
// produce — outbox messages, trace events, activity aggregates — ships
// back to the coordinator each cycle, and the chip phase here replicates
// the serial event engine's exactly: due chips step, idle chips skip,
// output drains in node-index order.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/trace"
)

// WorkerAddrEnv names the environment variable that turns a process
// into a shard worker: when set, the process dials the coordinator at
// that loopback address and serves the shard protocol instead of
// running its normal command line. cmd/mshard, cmd/msim, and the dist
// tests' TestMain all call MaybeWorker first thing, so the coordinator
// can respawn shards by re-executing its own binary.
const WorkerAddrEnv = "MSHARD_WORKER_ADDR"

// MaybeWorker turns the process into a shard worker if WorkerAddrEnv is
// set, never returning in that case. Call it before flag parsing in any
// binary that may be used as a shard worker executable.
func MaybeWorker() {
	addr := os.Getenv(WorkerAddrEnv)
	if addr == "" {
		return
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mshard worker: dial coordinator: %v\n", err)
		os.Exit(3)
	}
	err = ServeConn(conn)
	conn.Close()
	if err != nil && !errors.Is(err, io.EOF) {
		fmt.Fprintf(os.Stderr, "mshard worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// worker is one shard's serving state.
type worker struct {
	conn netConn
	wmu  sync.Mutex // serializes frame writes (replies vs heartbeats)

	spec initSpec
	m    *machine.Machine

	// arrival tracking mirrors machine.wakeArrivals: the owned nodes
	// with delivered-but-unconsumed mailbox messages, woken every cycle
	// until they drain.
	arrNodes []int
	arrMark  []bool

	traceBuf []trace.Event // events emitted during the current chip phase
	outBuf   []*noc.Message

	hbStop chan struct{}
	hbOnce sync.Once
}

// ServeConn serves the shard worker protocol on conn until the
// coordinator shuts the shard down (nil) or the connection dies (the
// transport error). A panic inside a command — a chip bug or injected
// chaos — is contained: the worker reports it as a repErr frame (the
// coordinator classifies it as a crash) and returns it, because the
// machine state is mid-cycle and must not serve further commands.
func ServeConn(conn net.Conn) error {
	w := &worker{conn: conn}
	defer w.stopHeartbeat()
	if err := w.send(repHello, encodeI64(protoVersion)); err != nil {
		return err
	}
	for {
		kind, payload, err := readFrame(conn)
		if err != nil {
			return err
		}
		rk, rp, err := w.handle(kind, payload)
		if err != nil {
			// Contained failure: report, then refuse to limp onward.
			w.send(repErr, encodeString(err.Error()))
			return err
		}
		if kind == cmdShutdown {
			w.send(repOK, nil)
			return nil
		}
		if err := w.send(rk, rp); err != nil {
			return err
		}
	}
}

func (w *worker) send(kind byte, payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.conn, kind, payload)
}

func (w *worker) stopHeartbeat() {
	if w.hbStop != nil {
		w.hbOnce.Do(func() { close(w.hbStop) })
	}
}

// handle dispatches one command, containing panics.
func (w *worker) handle(kind byte, payload []byte) (rk byte, rp []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("shard %d: contained panic: %v\n%s", w.spec.Shard, v, debug.Stack())
		}
	}()
	switch kind {
	case cmdInit:
		s, err := decodeInit(payload)
		if err != nil {
			return 0, nil, err
		}
		w.spec = *s
		if w.hbStop == nil && s.HeartbeatMillis > 0 {
			w.hbStop = make(chan struct{})
			go w.heartbeat(time.Duration(s.HeartbeatMillis) * time.Millisecond)
		}
		return repOK, nil, nil
	case cmdSeed:
		return repOK, nil, w.seed(payload)
	case cmdBeginRun:
		a := w.beginRun()
		return repActivity, encodeActivityFrame(&a), nil
	case cmdStep:
		cmd, err := decodeStep(w.m.Net, payload)
		if err != nil {
			return 0, nil, err
		}
		rep := w.step(cmd)
		return repStep, encodeStepReply(w.m.Net, rep), nil
	case cmdSkip:
		to, err := decodeI64(payload)
		if err != nil {
			return 0, nil, err
		}
		return repOK, nil, w.skipTo(to)
	case cmdPull:
		return repFrame, w.pull(), nil
	case cmdShutdown:
		return repOK, nil, nil
	default:
		return 0, nil, fmt.Errorf("shard %d: unknown command %#x", w.spec.Shard, kind)
	}
}

// heartbeat beacons liveness until the worker stops. A wedged command
// (chaos "hang", a livelocked chip bug) does not stop the beacons, which
// is exactly the point: the coordinator distinguishes a shard that is
// alive-but-stuck (stall) from one that went silent (lost).
func (w *worker) heartbeat(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		//mlint:allow detrange heartbeat liveness is supervision-side; shard stepping stays on the command loop
		select {
		case <-w.hbStop:
			return
		case <-t.C:
			if err := w.send(repHeartbeat, nil); err != nil {
				return
			}
		}
	}
}

// seed (re)builds the worker's machine from a full snapshot. The local
// network is then emptied: the authoritative copy of all traffic lives
// in the coordinator, and keeping the snapshot's copies here would
// double-deliver on resume.
func (w *worker) seed(snapshot []byte) error {
	if w.m == nil {
		cfg, err := machine.ReadSnapshotConfig(bytes.NewReader(snapshot))
		if err != nil {
			return err
		}
		w.m = machine.New(cfg)
		w.arrMark = make([]bool, w.m.NumNodes())
	}
	if err := w.m.Restore(bytes.NewReader(snapshot)); err != nil {
		return err
	}
	w.m.Net.ClearTraffic()
	w.arrNodes = w.arrNodes[:0]
	clear(w.arrMark)
	if w.spec.Hi > w.m.NumNodes() || w.spec.Lo < 0 || w.spec.Lo >= w.spec.Hi {
		return fmt.Errorf("shard %d: range [%d,%d) outside the %d-node mesh",
			w.spec.Shard, w.spec.Lo, w.spec.Hi, w.m.NumNodes())
	}
	// Trace hook on owned chips only: events buffer per cycle and ship
	// with the step reply. Unowned chips never step here, so they need
	// no hook.
	hook := func(e trace.Event) { w.traceBuf = append(w.traceBuf, e) }
	for _, c := range w.m.Chips[w.spec.Lo:w.spec.Hi] {
		c.Trace = hook
	}
	return nil
}

// beginRun is the shard half of machine.Run's entry: wake every owned
// chip so externally mutated state is re-observed, and report the
// activity aggregates the coordinator's first loop-head check needs.
func (w *worker) beginRun() activity {
	for i := w.spec.Lo; i < w.spec.Hi; i++ {
		w.m.Chips[i].Touch()
	}
	w.arrNodes = w.arrNodes[:0]
	for i := w.spec.Lo; i < w.spec.Hi; i++ {
		has := w.m.Net.HasArrivals(i)
		w.arrMark[i] = has
		if has {
			w.arrNodes = append(w.arrNodes, i)
		}
	}
	return w.activity(w.m.Cycle)
}

func (w *worker) activity(now int64) activity {
	running, busy, issued, next, fault := w.m.ShardActivity(w.spec.Lo, w.spec.Hi, now)
	return activity{Running: running, Busy: busy, Issued: issued, Next: next, Fault: fault}
}

// chaos fires any armed fault that is due at cycle t — the worker-side
// fault-injection probe, at the top of the chip phase. Chaos never
// mutates simulated state: a panic is contained and reported, a hang
// wedges the step while heartbeats keep flowing, and either way the
// coordinator rewinds and replays the window without the (disarmed)
// fault.
func (w *worker) chaos(t int64) {
	for _, c := range w.spec.Chaos {
		if c.Cycle <= t {
			if c.Kind == "hang" {
				select {} // wedged forever; heartbeats keep flowing
			}
			panic(fmt.Sprintf("injected panic at node %d, cycle %d", c.Node, t))
		}
	}
}

// skipTo materializes deferred idle cycles: the coordinator fast-
// forwarded the clock to `to`, and the owned chips replay the skipped
// window's idle bookkeeping exactly like the machine run loop's Skip.
func (w *worker) skipTo(to int64) error {
	d := to - w.m.Cycle
	if d < 0 {
		return fmt.Errorf("shard %d: skip to cycle %d, already at %d", w.spec.Shard, to, w.m.Cycle)
	}
	if d > 0 {
		for i := w.spec.Lo; i < w.spec.Hi; i++ {
			w.m.Chips[i].SkipCycles(d)
		}
		w.m.Cycle = to
	}
	return nil
}

// step advances the owned chips through machine cycle cmd.Cycle,
// replicating one iteration of the serial event engine's chip phase.
func (w *worker) step(cmd *stepCmd) *stepReply {
	t := cmd.Cycle
	if err := w.skipTo(t); err != nil {
		panic(err) // contained by handle; a protocol bug, not a chip bug
	}

	// Replay the coordinator's deliveries into the local mailbox and
	// wake the destinations for this cycle — the in-process machine's
	// wakeArrivals did exactly this at the end of the previous cycle.
	for _, d := range cmd.Deliveries {
		w.m.Net.Deliver(d.Node, d.Pri, d.Msg)
		if !w.arrMark[d.Node] {
			w.arrMark[d.Node] = true
			w.arrNodes = append(w.arrNodes, d.Node)
		}
		w.m.Chips[d.Node].WakeAt(t)
	}

	// Pending counts before the chip phase, for consumption deltas.
	type pend struct{ n0, n1 int }
	before := make([]pend, len(w.arrNodes))
	for k, node := range w.arrNodes {
		co := w.m.Net.CoordOf(node)
		before[k] = pend{w.m.Net.PendingAt(co, 0), w.m.Net.PendingAt(co, 1)}
	}

	// Chip phase, in node-index order: due chips step, idle chips skip.
	w.chaos(t)
	w.traceBuf = w.traceBuf[:0]
	for i := w.spec.Lo; i < w.spec.Hi; i++ {
		c := w.m.Chips[i]
		if c.NextEvent(t) <= t {
			c.Step(t)
		} else {
			c.SkipCycles(1)
		}
	}

	// Drain phase: outboxes in node-index order. The coordinator injects
	// these into the authoritative network in the same order, assigning
	// the same sequence numbers as an in-process drain.
	w.outBuf = w.outBuf[:0]
	for i := w.spec.Lo; i < w.spec.Hi; i++ {
		w.outBuf = w.m.Chips[i].TakeOutbox(w.outBuf)
	}

	rep := &stepReply{Msgs: w.outBuf, Trace: w.traceBuf}

	// Consumption confirmations and next cycle's arrival wake-ups.
	keep := w.arrNodes[:0]
	for k, node := range w.arrNodes {
		co := w.m.Net.CoordOf(node)
		if n := before[k].n0 - w.m.Net.PendingAt(co, 0); n > 0 {
			rep.Consumed = append(rep.Consumed, consumption{Node: node, Pri: 0, N: n})
		}
		if n := before[k].n1 - w.m.Net.PendingAt(co, 1); n > 0 {
			rep.Consumed = append(rep.Consumed, consumption{Node: node, Pri: 1, N: n})
		}
		if w.m.Net.HasArrivals(node) {
			keep = append(keep, node)
			w.m.Chips[node].WakeAt(t + 1)
		} else {
			w.arrMark[node] = false
		}
	}
	w.arrNodes = keep

	w.m.Cycle = t + 1
	rep.Act = w.activity(w.m.Cycle)
	return rep
}

// pull serializes the owned range as a partial-machine frame for
// coordinated checkpoints and end-of-phase reassembly.
func (w *worker) pull() []byte {
	var buf bytes.Buffer
	if err := w.m.EncodeShard(&buf, w.spec.Lo, w.spec.Hi); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
