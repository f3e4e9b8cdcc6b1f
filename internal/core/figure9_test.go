package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestFigure9MatchesExactAddress replays a write timeline in which the
// home node first completes an access to 0x10100, an address whose hex
// text starts with the timed 0x1010. The execute phase must be the
// completion at exactly 0x1010, not the earlier same-prefix one.
func TestFigure9MatchesExactAddress(t *testing.T) {
	const addr = 0x1010
	rec := &trace.Recorder{}
	hook := rec.Hook()
	for _, e := range []trace.Event{
		{Cycle: 100, Node: 0, Kind: trace.MemIssue, Mem: mem.ReqWrite, Addr: addr},
		{Cycle: 102, Node: 0, Kind: trace.AsyncEvent, Mem: mem.ReqWrite, Addr: addr},
		{Cycle: 116, Node: 0, Kind: trace.Send, DIP: 10, Len: 2},
		{Cycle: 122, Node: 1, Kind: trace.MsgRecv, DIP: 10},
		{Cycle: 125, Node: 1, Kind: trace.MemComplete, Mem: mem.ReqWrite, Addr: 0x10100},
		{Cycle: 130, Node: 1, Kind: trace.MemComplete, Mem: mem.ReqWrite, Addr: addr},
	} {
		hook(e)
	}
	res, err := figure9Phases(rec, 0, addr, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 30 {
		t.Errorf("write total = %d cycles, want 30 (the completion at %#x)", res.Total, addr)
	}
	last := res.Phases[len(res.Phases)-1]
	if last.Label != "execute store" || last.Cycle != 30 || last.Node != 1 {
		t.Errorf("execute phase = %+v", last)
	}
}
