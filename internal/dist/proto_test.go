package dist

// Wire-protocol unit tests: frame framing, payload round trips, and the
// decode side's behavior on corrupt streams (truncation, oversized
// lengths, garbage counts) — the coordinator classifies all of these as
// shard failures, so they must surface as errors, never panics or huge
// allocations.

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/trace"
)

func testNet() *noc.Network {
	return noc.New(noc.Coord{X: 2, Y: 2, Z: 1}, noc.Config{})
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello shard")
	if err := writeFrame(&buf, cmdStep, payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := readFrame(&buf)
	if err != nil || kind != cmdStep || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: kind %#x payload %q err %v", kind, got, err)
	}
}

func TestFrameCorrupt(t *testing.T) {
	// Oversized length must be rejected before allocating.
	huge := []byte{cmdStep, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := readFrame(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized frame: %v", err)
	}
	// Truncated payload must fail with an I/O error, not hang or succeed.
	var buf bytes.Buffer
	writeFrame(&buf, cmdSeed, make([]byte, 64))
	if _, _, err := readFrame(bytes.NewReader(buf.Bytes()[:10])); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v", err)
	}
}

func TestInitSpecRoundTrip(t *testing.T) {
	in := initSpec{
		Shard: 2, Lo: 4, Hi: 8, HeartbeatMillis: 125,
		Chaos: []ChaosSpec{{Node: 5, Cycle: 999, Kind: "hang"}, {Node: 6, Cycle: 1, Kind: "panic"}},
	}
	out, err := decodeInit(encodeInit(&in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Shard != in.Shard || out.Lo != in.Lo || out.Hi != in.Hi ||
		out.HeartbeatMillis != in.HeartbeatMillis || len(out.Chaos) != 2 ||
		out.Chaos[0] != in.Chaos[0] || out.Chaos[1] != in.Chaos[1] {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestStepRoundTrip(t *testing.T) {
	net := testNet()
	msg := &noc.Message{
		Pri: 0, Src: noc.Coord{X: 0}, Dst: noc.Coord{X: 1, Y: 1},
		DIP: 42, DstAddr: 0x1000,
		Body: []isa.Word{{Bits: 7}, {Bits: 9, Ptr: true}},
	}
	cmd := stepCmd{Cycle: 77, Deliveries: []delivery{{Node: 3, Pri: 0, Msg: msg}}}
	out, err := decodeStep(net, encodeStep(net, &cmd))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cycle != 77 || len(out.Deliveries) != 1 {
		t.Fatalf("round trip: %+v", out)
	}
	d := out.Deliveries[0]
	if d.Node != 3 || d.Pri != 0 || d.Msg.DIP != 42 || len(d.Msg.Body) != 2 || !d.Msg.Body[1].Ptr {
		t.Fatalf("delivery round trip: %+v msg %+v", d, d.Msg)
	}

	rep := stepReply{
		Msgs:     []*noc.Message{msg},
		Consumed: []consumption{{Node: 3, Pri: 1, N: 2}},
		Trace:    []trace.Event{{Cycle: 77, Node: 3, Kind: trace.MemIssue, Mem: mem.ReqRead, Addr: 0x1010}},
		Act:      activity{Running: 1, Busy: 2, Issued: 3, Next: 78, Fault: "boom"},
	}
	rout, err := decodeStepReply(net, encodeStepReply(net, &rep))
	if err != nil {
		t.Fatal(err)
	}
	if len(rout.Msgs) != 1 || rout.Consumed[0] != rep.Consumed[0] ||
		rout.Trace[0] != rep.Trace[0] || rout.Act != rep.Act {
		t.Fatalf("reply round trip: %+v", rout)
	}
}

func TestDecodeCorruptPayloads(t *testing.T) {
	net := testNet()
	// A payload that is nothing but a huge count: the armed stream-length
	// limit must reject it descriptively instead of allocating.
	if _, err := decodeInit([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage initSpec decoded")
	}
	if _, err := decodeStep(net, []byte{0x01, 0x02}); err == nil {
		t.Fatal("truncated stepCmd decoded")
	}
	if _, err := decodeStepReply(net, []byte{0xee}); err == nil {
		t.Fatal("truncated stepReply decoded")
	}
}

// traceFrames covers every kind with its fields at edge values.
func traceFrames() []trace.Event {
	const maxU = ^uint64(0)
	return []trace.Event{
		{Cycle: 0, Node: 0, Kind: trace.MemIssue, Mem: mem.ReqWritePhys, Addr: maxU},
		{Cycle: 1 << 40, Node: 15, Kind: trace.MemComplete, Mem: mem.ReqWrite, Addr: 0},
		{Cycle: 3, Node: 1, Kind: trace.RetryComplete, Addr: 0x1010},
		{Cycle: 4, Node: 2, Kind: trace.AsyncEvent, EvType: events.SyncFault, Mem: mem.ReqRead, Addr: maxU},
		{Cycle: 5, Node: 3, Kind: trace.TLBW, Addr: maxU >> 1},
		{Cycle: 6, Node: 0, Kind: trace.MRetry, Addr: 1},
		{Cycle: 7, Node: 1, Kind: trace.RSTW, VT: 15, CL: 3, Reg: isa.Remote(2, isa.FP(255))},
		{Cycle: 8, Node: 2, Kind: trace.Send, Pri: 1, Addr: 3, DIP: maxU, Len: 1<<31 - 1},
		{Cycle: 9, Node: 3, Kind: trace.Send, Addr: maxU, Peer: trace.Coord{X: -1, Y: -7, Z: -3}, DIP: 2, Len: 0},
		{Cycle: 10, Node: 0, Kind: trace.MsgRecv, Pri: 1, DIP: 10, Peer: trace.Coord{X: 1}},
		{Cycle: 11, Node: 1, Kind: trace.MsgReject, DIP: 0, Peer: trace.Coord{}},
		{Cycle: 12, Node: 2, Kind: trace.Resend, DIP: 7, Peer: trace.Coord{X: math.MaxInt32, Y: math.MinInt32, Z: -1}},
		{Cycle: 13, Node: 3, Kind: trace.ProtFault, Text: trace.Intern("send with illegal DIP 9")},
	}
}

// TestTraceFrameRoundTrip ships every trace kind through a step reply:
// the coordinator must see the events field for field, and the
// prot-fault message by text (its intern id is process-local).
func TestTraceFrameRoundTrip(t *testing.T) {
	net := testNet()
	rep := stepReply{Trace: traceFrames()}
	out, err := decodeStepReply(net, encodeStepReply(net, &rep))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Trace) != len(rep.Trace) {
		t.Fatalf("%d events back, want %d", len(out.Trace), len(rep.Trace))
	}
	for i, want := range rep.Trace {
		if got := out.Trace[i]; got != want || got.Detail() != want.Detail() {
			t.Errorf("event %d: got %+v (%s), want %+v (%s)", i, got, got.Detail(), want, want.Detail())
		}
	}
}

// TestTraceFrameCorrupt feeds bad kinds and every truncation of a trace
// frame to the decoder: each must fail through the reader's sticky
// error, never panic or yield an event.
func TestTraceFrameCorrupt(t *testing.T) {
	net := testNet()
	for _, bad := range []trace.Kind{0, trace.Kind(trace.NumKinds + 1), 255} {
		rep := stepReply{Trace: []trace.Event{{Cycle: 1, Kind: bad}}}
		_, err := decodeStepReply(net, encodeStepReply(net, &rep))
		if err == nil || !strings.Contains(err.Error(), "invalid kind") {
			t.Errorf("kind %d: err = %v, want an invalid-kind error", bad, err)
		}
	}
	full := encodeStepReply(net, &stepReply{Trace: traceFrames()})
	for n := 0; n < len(full); n++ {
		if _, err := decodeStepReply(net, full[:n]); err == nil {
			t.Fatalf("reply truncated to %d of %d bytes decoded", n, len(full))
		}
	}
}
