// Package trace records simulation events with cycle timestamps so the
// remote access timelines of Figure 9 can be reconstructed and printed.
//
// An Event is a fixed-size, pointer-free record: a Kind plus the numeric
// fields that kind uses. Recording one costs a struct copy and an append,
// and a recorded log is never scanned by the garbage collector. Text is
// rendered only where text is wanted: Name, Detail and Timeline.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
)

// Kind names the trace site that recorded an event.
type Kind uint8

// The trace kinds, one per trace site. The zero Kind is invalid, so a
// zero Event is never mistaken for a recorded one.
const (
	MemIssue      Kind = iota + 1 // user load/store issued: Mem, Addr
	MemComplete                   // memory request completed: Mem, Addr
	RetryComplete                 // MRETRY'd load wrote its register: Addr
	AsyncEvent                    // fault event record enqueued: EvType, Mem, Addr
	TLBW                          // LTLB entry installed: Addr is the VPN
	MRetry                        // faulting request re-injected: Addr
	RSTW                          // remote register writeback scheduled: VT, CL, Reg
	Send                          // message sent: Pri, DIP, Len, Addr; Peer (pri 0)
	MsgRecv                       // message accepted: Pri, DIP, Peer is the source
	MsgReject                     // message returned to sender: Pri, DIP, Peer is the source
	Resend                        // returned message re-injected: DIP, Peer is the destination
	ProtFault                     // protection fault: Text
	numKinds
)

// NumKinds is the number of valid kinds; they are 1..NumKinds.
const NumKinds = int(numKinds) - 1

var kindNames = [numKinds]string{
	MemIssue:      "mem-issue",
	MemComplete:   "mem-complete",
	RetryComplete: "retry-complete",
	AsyncEvent:    "event",
	TLBW:          "tlbw",
	MRetry:        "mretry",
	RSTW:          "rstw",
	Send:          "send",
	MsgRecv:       "msg-recv",
	MsgReject:     "msg-reject",
	Resend:        "resend",
	ProtFault:     "prot-fault",
}

// Valid reports whether k names a trace site.
func (k Kind) Valid() bool { return k > 0 && k < numKinds }

func (k Kind) String() string {
	if !k.Valid() {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Event is one timestamped simulator occurrence: 64 bytes, no pointers.
// Which fields beyond Cycle, Node and Kind are meaningful depends on Kind
// (see the Kind constants); the rest stay zero.
type Event struct {
	Cycle int64
	// Addr is the memory address, the VPN of a TLBW, or a send's
	// destination address (for a priority-1 send, the node index).
	Addr   uint64
	DIP    uint64 // message dispatch instruction pointer
	Node   int    // the chip that recorded the event
	Peer   Coord  // message destination (send, resend) or source (receive)
	Len    int32  // message body words
	Text   uint32 // protection fault message, as an Intern id
	Kind   Kind
	Mem    mem.Kind    // request kind
	EvType events.Type // fault event record type
	Pri    uint8       // message priority
	VT, CL uint8       // register writeback destination V-Thread and cluster
	Reg    isa.Reg     // register writeback destination register
}

// Coord is a mesh coordinate (noc.Coord in 32-bit fields).
type Coord struct{ X, Y, Z int32 }

// CoordOf narrows a network coordinate.
func CoordOf(c noc.Coord) Coord { return Coord{int32(c.X), int32(c.Y), int32(c.Z)} }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// Name is the event's kind as text.
func (e Event) Name() string { return e.Kind.String() }

// Detail renders the event's fields as text.
func (e Event) Detail() string {
	switch e.Kind {
	case MemIssue, MemComplete:
		return fmt.Sprintf("%s addr=%#x", e.Mem, e.Addr)
	case RetryComplete, MRetry:
		return fmt.Sprintf("addr=%#x", e.Addr)
	case AsyncEvent:
		return events.Record{Type: e.EvType, Kind: e.Mem, VAddr: e.Addr}.String()
	case TLBW:
		return fmt.Sprintf("vpn=%d", e.Addr)
	case RSTW:
		return fmt.Sprintf("vt=%d cl=%d %s", e.VT, e.CL, e.Reg)
	case Send:
		if e.Pri == 1 {
			return fmt.Sprintf("pri1 to node %d dip=%d len=%d", int(e.Addr), e.DIP, e.Len)
		}
		return fmt.Sprintf("pri0 to %v dip=%d len=%d", e.Peer, e.DIP, e.Len)
	case MsgRecv, MsgReject:
		return fmt.Sprintf("pri%d dip=%d from %v", e.Pri, e.DIP, e.Peer)
	case Resend:
		return fmt.Sprintf("dip=%d to %v", e.DIP, e.Peer)
	case ProtFault:
		return Text(e.Text)
	}
	return ""
}

// texts interns protection fault messages, the one free-form field, so
// Event stays pointer-free. The table is process-wide because events
// outlive their recorder (sweep points merge into the parent's log). It
// grows by one entry per distinct message recorded; trace sites intern
// only when a hook is installed.
var texts struct {
	sync.Mutex
	ids  map[string]uint32
	list []string
}

// Intern returns the id of s for Event.Text.
func Intern(s string) uint32 {
	texts.Lock()
	defer texts.Unlock()
	id, ok := texts.ids[s]
	if !ok {
		if texts.ids == nil {
			texts.ids = make(map[string]uint32)
		}
		id = uint32(len(texts.list))
		texts.list = append(texts.list, s)
		texts.ids[s] = id
	}
	return id
}

// Text returns the string interned under id, "" if there is none.
func Text(id uint32) string {
	texts.Lock()
	defer texts.Unlock()
	if int(id) < len(texts.list) {
		return texts.list[id]
	}
	return ""
}

// Recorder accumulates events; install Hook on a machine.
type Recorder struct {
	Events []Event
}

// Hook returns the callback to install with machine.SetTrace.
func (r *Recorder) Hook() func(Event) {
	return func(e Event) { r.Events = append(r.Events, e) }
}

// Reset clears recorded events.
func (r *Recorder) Reset() { r.Events = r.Events[:0] }

// Filter returns events whose name is in names (all if empty), at or after
// cycle from.
func (r *Recorder) Filter(from int64, names ...string) []Event {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []Event
	for _, e := range r.Events {
		if e.Cycle >= from && (len(want) == 0 || want[e.Name()]) {
			out = append(out, e)
		}
	}
	return out
}

// First returns the first event with the given name at or after cycle from,
// and whether one exists.
func (r *Recorder) First(from int64, name string) (Event, bool) {
	return r.FirstMatch(from, func(e Event) bool { return e.Name() == name })
}

// FirstMatch returns the first event at or after from for which pred holds.
func (r *Recorder) FirstMatch(from int64, pred func(Event) bool) (Event, bool) {
	for _, e := range r.Events {
		if e.Cycle >= from && pred(e) {
			return e, true
		}
	}
	return Event{}, false
}

// Timeline renders events as a two-column per-node timeline normalized to
// cycle zero at the first event, in the style of Figure 9.
func Timeline(events []Event, nodes ...int) string {
	if len(events) == 0 {
		return "(no events)\n"
	}
	base := events[0].Cycle
	var b strings.Builder
	fmt.Fprintf(&b, "%8s  %s\n", "cycle", "event")
	for _, e := range events {
		keep := len(nodes) == 0
		for _, n := range nodes {
			if e.Node == n {
				keep = true
			}
		}
		if !keep {
			continue
		}
		fmt.Fprintf(&b, "%8d  NODE %d: %-14s %s\n", e.Cycle-base, e.Node, e.Name(), e.Detail())
	}
	return b.String()
}
