// Package dist is the distributed multi-process engine (DESIGN.md, "The
// distributed engine"): a coordinator partitions the mesh into contiguous
// node ranges and farms each range out to a shard worker process on the
// same host, connected over loopback sockets. The participant set is
// fixed at session start and every shard has an explicit locator — the
// HDDS-Micro idiom of a small, preallocated, fully-enumerated federation
// rather than an elastic cluster.
//
// The engine is conservatively synchronized and bit-identical to the
// in-process engines: the coordinator owns the authoritative network,
// the clock, and the run-loop completion checks, while shards own chip
// state and step only their range. The existing outbox drain phase is
// the inter-process exchange point — shards ship their drained outboxes
// back each window and the coordinator injects them in global node
// order, so sequence numbers (and therefore every simulated result)
// match an in-process run exactly.
//
// The headline is supervision (the robustness story of internal/serve
// applied across process boundaries): the coordinator heartbeats each
// shard, enforces a per-window wall deadline, classifies failures as
// crash / stall / lost connection, and recovers a dead shard by
// respawning it and rewinding the whole federation to the latest
// coordinated window-boundary checkpoint, from which execution resumes
// bit-identically.
//
// This file is the wire protocol: length-prefixed frames over any
// net.Conn (loopback TCP for real workers, net.Pipe for in-process
// ones), with snap-encoded payloads.
package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/snap"
	"repro/internal/trace"
)

// protoVersion gates the handshake: a coordinator and worker from
// different builds refuse to pair instead of corrupting each other.
const protoVersion = 1

// Frame kinds. Commands flow coordinator -> worker, replies worker ->
// coordinator; repHeartbeat may arrive between any command and its reply.
const (
	cmdInit     = byte(0x01) // initSpec: shard identity, range, chaos
	cmdSeed     = byte(0x02) // full machine snapshot (machine.Save bytes)
	cmdBeginRun = byte(0x03) // run-phase entry: wake chips, report activity
	cmdStep     = byte(0x04) // stepCmd: advance owned chips one cycle
	cmdSkip     = byte(0x05) // skipCmd: materialize deferred idle cycles
	cmdPull     = byte(0x06) // request a shard frame (machine.EncodeShard)
	cmdShutdown = byte(0x07) // orderly exit

	repHello     = byte(0x41) // worker's first frame: protocol version
	repOK        = byte(0x42) // empty acknowledgement
	repActivity  = byte(0x43) // activity aggregates
	repStep      = byte(0x44) // stepReply
	repFrame     = byte(0x45) // shard frame bytes
	repErr       = byte(0x46) // contained worker failure (classified crash)
	repHeartbeat = byte(0x47) // liveness beacon from the worker
)

// maxFrame bounds a frame payload; anything larger is a corrupt stream.
const maxFrame = 1 << 30

// writeFrame writes one [kind][len u32 LE][payload] frame.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame written by writeFrame.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// ChaosSpec is a deterministic worker-side fault for drills and tests
// (see internal/faultinject): when the owning shard is about to step
// Node at Cycle, it panics (Kind "panic", contained and reported as a
// crash) or wedges forever (Kind "hang", tripping the coordinator's
// per-window deadline). Chaos never alters simulated state — a recovered
// run is bit-identical to an undisturbed one.
type ChaosSpec struct {
	Node  int
	Cycle int64
	Kind  string // "panic" | "hang"
}

// initSpec configures a worker: its shard index, owned node range
// [Lo, Hi), heartbeat cadence, and any armed chaos.
type initSpec struct {
	Shard, Lo, Hi   int
	HeartbeatMillis int64
	Chaos           []ChaosSpec
}

func encodeInit(s *initSpec) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.Int(s.Shard)
	w.Int(s.Lo)
	w.Int(s.Hi)
	w.I64(s.HeartbeatMillis)
	w.Len(len(s.Chaos))
	for _, c := range s.Chaos {
		w.Int(c.Node)
		w.I64(c.Cycle)
		w.String(c.Kind)
	}
	return buf.Bytes()
}

func decodeInit(p []byte) (*initSpec, error) {
	r := limitedReader(p)
	s := &initSpec{Shard: r.Int(), Lo: r.Int(), Hi: r.Int(), HeartbeatMillis: r.I64()}
	n := r.Len(1 << 16)
	for i := 0; i < n && r.Err() == nil; i++ {
		s.Chaos = append(s.Chaos, ChaosSpec{Node: r.Int(), Cycle: r.I64(), Kind: r.String(64)})
	}
	return s, r.Err()
}

// activity carries one shard's run-loop aggregates, computed by
// machine.ShardActivity with the same definitions as the in-process
// loop head: running user H-Threads, non-quiescent chips, instructions
// issued, the earliest chip event, and the first fault in scan order.
type activity struct {
	Running, Busy int
	Issued        uint64
	Next          int64
	Fault         string
}

func (a *activity) encode(w *snap.Writer) {
	w.Int(a.Running)
	w.Int(a.Busy)
	w.U64(a.Issued)
	w.I64(a.Next)
	w.String(a.Fault)
}

func decodeActivity(r *snap.Reader) activity {
	return activity{
		Running: r.Int(),
		Busy:    r.Int(),
		Issued:  r.U64(),
		Next:    r.I64(),
		Fault:   r.String(1 << 12),
	}
}

func encodeActivityFrame(a *activity) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	a.encode(w)
	return buf.Bytes()
}

func decodeActivityFrame(p []byte) (activity, error) {
	r := limitedReader(p)
	a := decodeActivity(r)
	return a, r.Err()
}

// delivery ships one authoritative-network delivery to the shard that
// owns the destination node; the shard replays it into its local
// mailbox so the chip consumes it exactly as it would in-process.
type delivery struct {
	Node, Pri int
	Msg       *noc.Message
}

// stepCmd advances a shard's owned chips through machine cycle Cycle.
// The gap between the shard's local clock and Cycle is the deferred
// idle window the coordinator fast-forwarded over; the shard
// materializes it with SkipCycles first, exactly like machine.skip.
type stepCmd struct {
	Cycle      int64
	Deliveries []delivery
}

func encodeStep(net *noc.Network, c *stepCmd) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.I64(c.Cycle)
	w.Len(len(c.Deliveries))
	for _, d := range c.Deliveries {
		w.Int(d.Node)
		w.Int(d.Pri)
		net.EncodeMessage(w, d.Msg)
	}
	return buf.Bytes()
}

func decodeStep(net *noc.Network, p []byte) (*stepCmd, error) {
	r := limitedReader(p)
	c := &stepCmd{Cycle: r.I64()}
	n := r.Len(1 << 24)
	for i := 0; i < n && r.Err() == nil; i++ {
		c.Deliveries = append(c.Deliveries, delivery{
			Node: r.Int(),
			Pri:  r.Int(),
			Msg:  net.DecodeMessage(r),
		})
	}
	return c, r.Err()
}

// consumption confirms that the shard's chip consumed N messages from
// its (Node, Pri) mailbox this cycle, so the coordinator can retire the
// same N from the authoritative arrival queue — keeping the two exactly
// equal at every synchronization point.
type consumption struct {
	Node, Pri, N int
}

// stepReply is everything one shard produced during one cycle: drained
// outbox messages in node order (the coordinator injects them, assigning
// global sequence numbers), consumption confirmations, trace events, and
// the post-step activity aggregates.
type stepReply struct {
	Msgs     []*noc.Message
	Consumed []consumption
	Trace    []trace.Event // replayed by the coordinator in global node order
	Act      activity
}

func encodeStepReply(net *noc.Network, rep *stepReply) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.Len(len(rep.Msgs))
	for _, m := range rep.Msgs {
		net.EncodeMessage(w, m)
	}
	w.Len(len(rep.Consumed))
	for _, c := range rep.Consumed {
		w.Int(c.Node)
		w.Int(c.Pri)
		w.Int(c.N)
	}
	w.Len(len(rep.Trace))
	for i := range rep.Trace {
		encodeTraceEvent(w, &rep.Trace[i])
	}
	rep.Act.encode(w)
	return buf.Bytes()
}

func decodeStepReply(net *noc.Network, p []byte) (*stepReply, error) {
	r := limitedReader(p)
	rep := &stepReply{}
	n := r.Len(1 << 24)
	for i := 0; i < n && r.Err() == nil; i++ {
		rep.Msgs = append(rep.Msgs, net.DecodeMessage(r))
	}
	n = r.Len(1 << 24)
	for i := 0; i < n && r.Err() == nil; i++ {
		rep.Consumed = append(rep.Consumed, consumption{Node: r.Int(), Pri: r.Int(), N: r.Int()})
	}
	n = r.Len(1 << 24)
	for i := 0; i < n && r.Err() == nil; i++ {
		rep.Trace = append(rep.Trace, decodeTraceEvent(r))
	}
	rep.Act = decodeActivity(r)
	return rep, r.Err()
}

// A trace frame is traceFrameWords fixed 64-bit words, little-endian:
//
//	0  Cycle   4  Kind | Mem<<8 | EvType<<16 | Pri<<24 | VT<<32 | CL<<40 | Reg.Class<<48 | Reg.Index<<56
//	1  Node    5  uint32(Len) | uint8(Reg.Cluster)<<32
//	2  Addr    6  uint32(Peer.X) | uint32(Peer.Y)<<32
//	3  DIP     7  uint32(Peer.Z)
//
// A prot-fault frame is followed by its message as a length-prefixed
// string: the Text id is local to the process that interned it.
const traceFrameWords = 8

func encodeTraceEvent(w *snap.Writer, e *trace.Event) {
	ws := w.Stage(traceFrameWords)
	ws[0] = uint64(e.Cycle)
	ws[1] = uint64(e.Node)
	ws[2] = e.Addr
	ws[3] = e.DIP
	ws[4] = uint64(e.Kind) | uint64(e.Mem)<<8 | uint64(e.EvType)<<16 | uint64(e.Pri)<<24 |
		uint64(e.VT)<<32 | uint64(e.CL)<<40 | uint64(e.Reg.Class)<<48 | uint64(e.Reg.Index)<<56
	ws[5] = uint64(uint32(e.Len)) | uint64(uint8(e.Reg.Cluster))<<32
	ws[6] = uint64(uint32(e.Peer.X)) | uint64(uint32(e.Peer.Y))<<32
	ws[7] = uint64(uint32(e.Peer.Z))
	w.RawU64s(ws)
	if e.Kind == trace.ProtFault {
		w.String(trace.Text(e.Text))
	}
}

func decodeTraceEvent(r *snap.Reader) trace.Event {
	ws := r.Stage(traceFrameWords)
	r.RawU64s(ws)
	if r.Err() != nil {
		return trace.Event{}
	}
	e := trace.Event{
		Cycle:  int64(ws[0]),
		Node:   int(ws[1]),
		Addr:   ws[2],
		DIP:    ws[3],
		Kind:   trace.Kind(ws[4]),
		Mem:    mem.Kind(ws[4] >> 8),
		EvType: events.Type(ws[4] >> 16),
		Pri:    uint8(ws[4] >> 24),
		VT:     uint8(ws[4] >> 32),
		CL:     uint8(ws[4] >> 40),
		Reg: isa.Reg{
			Class:   isa.RegClass(ws[4] >> 48),
			Index:   uint8(ws[4] >> 56),
			Cluster: int8(ws[5] >> 32),
		},
		Len:  int32(uint32(ws[5])),
		Peer: trace.Coord{X: int32(uint32(ws[6])), Y: int32(ws[6] >> 32), Z: int32(uint32(ws[7]))},
	}
	if !e.Kind.Valid() {
		r.Fail(fmt.Errorf("dist: trace frame has invalid kind %d", ws[4]&0xFF))
		return trace.Event{}
	}
	if e.Kind == trace.ProtFault {
		if text := r.String(1 << 16); r.Err() == nil {
			e.Text = trace.Intern(text)
		}
	}
	return e
}

func encodeI64(v int64) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.I64(v)
	return buf.Bytes()
}

func decodeI64(p []byte) (int64, error) {
	r := limitedReader(p)
	v := r.I64()
	return v, r.Err()
}

func encodeString(s string) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.String(s)
	return buf.Bytes()
}

func decodeString(p []byte) (string, error) {
	r := limitedReader(p)
	s := r.String(1 << 20)
	return s, r.Err()
}

// limitedReader wraps payload bytes in a snap.Reader with its length
// limit armed, so corrupt counts fail descriptively instead of
// attempting huge allocations.
func limitedReader(p []byte) *snap.Reader {
	r := snap.NewReader(bytes.NewReader(p))
	r.Limit(int64(len(p)))
	return r
}

// netConn is the transport a shard connection needs: framed I/O plus
// deadlines for the per-window watchdog. Both loopback TCP sockets and
// net.Pipe halves satisfy it.
type netConn = net.Conn

// writeDeadline is how long a frame write may block before the shard is
// declared unresponsive (a wedged worker eventually fills the socket
// buffer; without a deadline the coordinator would wedge with it).
func writeFrameDeadline(c netConn, kind byte, payload []byte, d time.Duration) error {
	if d > 0 {
		if err := c.SetWriteDeadline(time.Now().Add(d)); err != nil {
			return err
		}
		defer c.SetWriteDeadline(time.Time{})
	}
	return writeFrame(c, kind, payload)
}
