package trace

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
)

func recorderWith(events ...Event) *Recorder {
	r := &Recorder{}
	hook := r.Hook()
	for _, e := range events {
		hook(e)
	}
	return r
}

func TestHookRecords(t *testing.T) {
	r := recorderWith(
		Event{Cycle: 1, Node: 0, Kind: Send},
		Event{Cycle: 2, Node: 1, Kind: MsgRecv},
	)
	if len(r.Events) != 2 || r.Events[0].Name() != "send" || r.Events[1].Node != 1 {
		t.Errorf("events = %+v", r.Events)
	}
	r.Reset()
	if len(r.Events) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestFilter(t *testing.T) {
	r := recorderWith(
		Event{Cycle: 1, Node: 0, Kind: Send},
		Event{Cycle: 2, Node: 0, Kind: AsyncEvent},
		Event{Cycle: 3, Node: 1, Kind: Send},
		Event{Cycle: 4, Node: 1, Kind: RSTW},
	)
	got := r.Filter(0, "send")
	if len(got) != 2 || got[0].Cycle != 1 || got[1].Cycle != 3 {
		t.Errorf("Filter(send) = %+v", got)
	}
	got = r.Filter(3)
	if len(got) != 2 {
		t.Errorf("Filter(from=3) = %+v", got)
	}
	got = r.Filter(0, "send", "rstw")
	if len(got) != 3 {
		t.Errorf("Filter(send,rstw) = %+v", got)
	}
}

func TestFirstAndFirstMatch(t *testing.T) {
	r := recorderWith(
		Event{Cycle: 5, Node: 0, Kind: Send, DIP: 1},
		Event{Cycle: 9, Node: 1, Kind: Send, DIP: 2},
	)
	e, ok := r.First(0, "send")
	if !ok || e.Cycle != 5 {
		t.Errorf("First = %+v, %v", e, ok)
	}
	e, ok = r.First(6, "send")
	if !ok || e.Cycle != 9 {
		t.Errorf("First(from 6) = %+v, %v", e, ok)
	}
	if _, ok := r.First(10, "send"); ok {
		t.Error("First past all events should fail")
	}
	e, ok = r.FirstMatch(0, func(e Event) bool { return e.Node == 1 })
	if !ok || e.DIP != 2 {
		t.Errorf("FirstMatch = %+v, %v", e, ok)
	}
	if _, ok := r.FirstMatch(0, func(Event) bool { return false }); ok {
		t.Error("FirstMatch with false pred should fail")
	}
}

func TestTimelineNormalizesAndFiltersNodes(t *testing.T) {
	events := []Event{
		{Cycle: 100, Node: 0, Kind: Send},
		{Cycle: 105, Node: 1, Kind: MsgRecv},
		{Cycle: 110, Node: 2, Kind: TLBW},
	}
	out := Timeline(events, 0, 1)
	if !strings.Contains(out, "NODE 0: send") || !strings.Contains(out, "NODE 1: msg-recv") {
		t.Errorf("timeline missing events:\n%s", out)
	}
	if strings.Contains(out, "NODE 2") {
		t.Errorf("timeline should exclude node 2:\n%s", out)
	}
	// Normalized to the first event's cycle.
	if !strings.Contains(out, "       0  NODE 0") {
		t.Errorf("timeline not normalized:\n%s", out)
	}
	if Timeline(nil) != "(no events)\n" {
		t.Error("empty timeline wrong")
	}
	// No node filter: include everything.
	all := Timeline(events)
	if !strings.Contains(all, "NODE 2") {
		t.Error("unfiltered timeline should include node 2")
	}
}

// TestDetailMatchesFormattedText pins Detail against the text each trace
// site formatted before events were typed: the same format verbs applied
// to the same argument types, at edge values.
func TestDetailMatchesFormattedText(t *testing.T) {
	const maxU = uint64(math.MaxUint64)
	neg := noc.Coord{X: -1, Y: -7, Z: -3}
	zero := noc.Coord{}
	far := noc.Coord{X: math.MaxInt32, Y: 5, Z: math.MinInt32}
	vt, cl, reg := isa.UnpackRegDesc(0xFFFF_FFFF)
	vt0, cl0, reg0 := isa.UnpackRegDesc(isa.RegDesc(0, 0, isa.FP(0)))
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: MemIssue, Mem: mem.ReqRead, Addr: 0}, fmt.Sprintf("%s addr=%#x", mem.ReqRead, uint64(0))},
		{Event{Kind: MemIssue, Mem: mem.ReqWritePhys, Addr: maxU}, fmt.Sprintf("%s addr=%#x", mem.ReqWritePhys, maxU)},
		{Event{Kind: MemComplete, Mem: mem.ReqWrite, Addr: 0x1010}, fmt.Sprintf("%s addr=%#x", mem.ReqWrite, uint64(0x1010))},
		{Event{Kind: MemComplete, Mem: mem.Kind(0), Addr: maxU}, fmt.Sprintf("%s addr=%#x", mem.Kind(0), maxU)},
		{Event{Kind: RetryComplete, Addr: 0}, fmt.Sprintf("addr=%#x", uint64(0))},
		{Event{Kind: RetryComplete, Addr: maxU}, fmt.Sprintf("addr=%#x", maxU)},
		{Event{Kind: AsyncEvent, EvType: events.LTLBMiss, Mem: mem.ReqRead, Addr: 0},
			events.Record{Type: events.LTLBMiss, Kind: mem.ReqRead, VAddr: 0}.String()},
		{Event{Kind: AsyncEvent, EvType: events.SyncFault, Mem: mem.ReqWrite, Addr: maxU},
			events.Record{Type: events.SyncFault, Kind: mem.ReqWrite, VAddr: maxU}.String()},
		{Event{Kind: TLBW, Addr: 0}, fmt.Sprintf("vpn=%d", uint64(0))},
		{Event{Kind: TLBW, Addr: maxU >> 1}, fmt.Sprintf("vpn=%d", maxU>>1)},
		{Event{Kind: MRetry, Addr: maxU}, fmt.Sprintf("addr=%#x", maxU)},
		{Event{Kind: RSTW, VT: uint8(vt), CL: uint8(cl), Reg: reg}, fmt.Sprintf("vt=%d cl=%d %s", vt, cl, reg)},
		{Event{Kind: RSTW, VT: uint8(vt0), CL: uint8(cl0), Reg: reg0}, fmt.Sprintf("vt=%d cl=%d %s", vt0, cl0, reg0)},
		{Event{Kind: Send, Pri: 1, Addr: 0, DIP: 0, Len: 0}, fmt.Sprintf("pri1 to node %d dip=%d len=%d", 0, uint64(0), 0)},
		{Event{Kind: Send, Pri: 1, Addr: 15, DIP: maxU, Len: 3}, fmt.Sprintf("pri1 to node %d dip=%d len=%d", 15, maxU, 3)},
		{Event{Kind: Send, Peer: CoordOf(zero), DIP: 2, Len: 1}, fmt.Sprintf("pri0 to %v dip=%d len=%d", zero, uint64(2), 1)},
		{Event{Kind: Send, Peer: CoordOf(neg), DIP: maxU, Len: 8}, fmt.Sprintf("pri0 to %v dip=%d len=%d", neg, maxU, 8)},
		{Event{Kind: MsgRecv, Pri: 0, DIP: 0, Peer: CoordOf(zero)}, fmt.Sprintf("pri%d dip=%d from %v", 0, uint64(0), zero)},
		{Event{Kind: MsgRecv, Pri: 1, DIP: maxU, Peer: CoordOf(neg)}, fmt.Sprintf("pri%d dip=%d from %v", 1, maxU, neg)},
		{Event{Kind: MsgReject, Pri: 0, DIP: 10, Peer: CoordOf(far)}, fmt.Sprintf("pri%d dip=%d from %v", 0, uint64(10), far)},
		{Event{Kind: Resend, DIP: 0, Peer: CoordOf(zero)}, fmt.Sprintf("dip=%d to %v", uint64(0), zero)},
		{Event{Kind: Resend, DIP: maxU, Peer: CoordOf(neg)}, fmt.Sprintf("dip=%d to %v", maxU, neg)},
		{Event{Kind: ProtFault, Text: Intern("send to untagged address")}, "send to untagged address"},
		{Event{Kind: ProtFault, Text: Intern("")}, ""},
	}
	for _, c := range cases {
		if got := c.e.Detail(); got != c.want {
			t.Errorf("%s Detail() = %q, want %q", c.e.Name(), got, c.want)
		}
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); int(k) <= NumKinds; k++ {
		if !k.Valid() || k.String() == "" || strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[k.String()]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, k.String())
		}
		seen[k.String()] = k
	}
	if NumKinds != 12 {
		t.Errorf("NumKinds = %d, want one per trace site (12)", NumKinds)
	}
	for _, k := range []Kind{0, Kind(NumKinds + 1), 255} {
		if k.Valid() {
			t.Errorf("kind %d should be invalid", k)
		}
	}
	if (Event{}).Detail() != "" {
		t.Error("zero event should render no detail")
	}
}

func TestInternIsStable(t *testing.T) {
	a, b := Intern("lea on untagged word"), Intern("sendn to bad node 9")
	if a == b || Intern("lea on untagged word") != a {
		t.Errorf("ids %d, %d not distinct and stable", a, b)
	}
	if Text(a) != "lea on untagged word" || Text(b) != "sendn to bad node 9" {
		t.Errorf("Text round trip: %q, %q", Text(a), Text(b))
	}
	if Text(math.MaxUint32) != "" {
		t.Error("unknown id should render empty")
	}
}

// TestEventIsCompactAndPointerFree pins the layout that makes recording
// cheap: one 64-byte cache line, and nothing for the garbage collector
// to scan in a recorded log.
func TestEventIsCompactAndPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 64 {
		t.Errorf("Event is %d bytes, want 64", n)
	}
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if walk(ty.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return false
		}
		return true
	}
	if walk(reflect.TypeOf(Event{})) {
		t.Error("Event holds a pointer-bearing field")
	}
}
