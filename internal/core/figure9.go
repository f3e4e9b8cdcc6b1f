package core

// Figure 9 of the paper: timelines for remote read and write accesses. The
// experiment reruns the Remote Cache Hit scenario of Table 1 with tracing
// enabled and reconstructs the per-phase cycle stamps on both nodes:
// load/store issue, LTLB miss event, request message send, message arrival
// and handler execution at the home node, reply delivery, and the final
// register writeback (reads).

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Phase is one labelled point on a remote access timeline.
type Phase struct {
	Cycle int64 // relative to the access issue
	Node  int
	Label string
}

// Figure9Result is a reconstructed remote access timeline.
type Figure9Result struct {
	Kind   string // "read" or "write"
	Phases []Phase
	Total  int64
}

// Figure9 reproduces both timelines; the two traced machines run
// concurrently.
func Figure9() (read, write *Figure9Result, err error) {
	var res [2]*Figure9Result
	err = ForEachMachine(2, func(i int) error {
		r, oneErr := figure9One(i == 1)
		res[i] = r
		return oneErr
	})
	if err != nil {
		return nil, nil, err
	}
	return res[0], res[1], nil
}

func figure9One(isWrite bool) (*Figure9Result, error) {
	s, start, addr, err := figure9Run(isWrite)
	if err != nil {
		return nil, err
	}
	return figure9Phases(s.Recorder, start, addr, isWrite)
}

// figure9Run stages the Remote Cache Hit access and runs the timed read
// or write with a fresh trace. It returns the traced simulator, the
// cycle the access started at and the accessed address.
func figure9Run(isWrite bool) (s *Sim, start int64, addr uint64, err error) {
	s, err = NewSim(Options{Nodes: 2})
	if err != nil {
		return nil, 0, 0, err
	}
	addr = s.HomeBase(1) + 16
	if err := stageAccess(s, RemoteCacheHit, addr); err != nil {
		return nil, 0, 0, err
	}
	s.Recorder.Reset()
	start = s.M.Cycle
	if isWrite {
		_, err = timeWrite(s, RemoteCacheHit, addr)
	} else {
		_, err = timeRead(s, addr)
	}
	return s, start, addr, err
}

// figure9Phases reconstructs the timeline of the access to addr from the
// events recorded at or after start. Events match on their typed fields,
// so the home node's completion is the one at exactly addr.
func figure9Phases(rec *trace.Recorder, start int64, addr uint64, isWrite bool) (*Figure9Result, error) {
	kind := "read"
	if isWrite {
		kind = "write"
	}
	res := &Figure9Result{Kind: kind}
	at := func(node int, k trace.Kind) func(trace.Event) bool {
		return func(e trace.Event) bool { return e.Node == node && e.Kind == k }
	}
	issue, ok := rec.FirstMatch(start, func(e trace.Event) bool { return e.Kind == trace.MemIssue })
	if !ok {
		return nil, fmt.Errorf("figure9: no mem-issue event")
	}
	base := issue.Cycle
	add := func(e trace.Event, label string, ok bool) {
		if ok {
			res.Phases = append(res.Phases, Phase{e.Cycle - base, e.Node, label})
		}
	}
	opName := map[bool]string{false: "LOAD", true: "STORE"}[isWrite]
	add(issue, opName+" issues", true)

	ev, ok := rec.FirstMatch(base, func(e trace.Event) bool { return e.Kind == trace.AsyncEvent })
	add(ev, "LTLB miss event enqueued", ok)
	snd, ok := rec.FirstMatch(base, at(0, trace.Send))
	add(snd, "LTLB miss handler completes; "+opName+" message sent", ok)
	rcv, ok := rec.FirstMatch(base, at(1, trace.MsgRecv))
	add(rcv, "message received", ok)
	exec, ok := rec.FirstMatch(base, func(e trace.Event) bool {
		return at(1, trace.MemComplete)(e) && e.Addr == addr
	})
	add(exec, "execute "+strings.ToLower(opName), ok)

	if isWrite {
		if !ok {
			return nil, fmt.Errorf("figure9: store never completed at home")
		}
		res.Total = exec.Cycle - base
	} else {
		reply, rok := rec.FirstMatch(base, at(1, trace.Send))
		add(reply, "reply message sent", rok)
		rrecv, rok2 := rec.FirstMatch(base, at(0, trace.MsgRecv))
		add(rrecv, "reply received", rok2)
		wb, rok3 := rec.FirstMatch(base, at(0, trace.RSTW))
		add(wb, "data written to destination register", rok3)
		if !rok3 {
			return nil, fmt.Errorf("figure9: no register writeback observed")
		}
		res.Total = wb.Cycle - base
	}
	return res, nil
}

// Format renders the timeline like the paper's figure.
func (r *Figure9Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "REMOTE %s TIMELINE (total %d cycles)\n", strings.ToUpper(r.Kind), r.Total)
	fmt.Fprintf(&b, "%8s  %-6s  %s\n", "cycle", "node", "phase")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%8d  NODE %d  %s\n", p.Cycle, p.Node, p.Label)
	}
	return b.String()
}
