package core

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestTracedRemoteTrafficNoAllocs pins the cost of recording a trace: with
// the recorder pre-sized, a steady-state machine cycle in which node 0
// issues remote loads and SENDs and both nodes receive messages allocates
// nothing. Events are fixed-size structs appended to the log; message
// shells are recycled by the network.
func TestTracedRemoteTrafficNoAllocs(t *testing.T) {
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{Events: make([]trace.Event, 0, 1<<16)}
	s.M.SetTrace(rec.Hook())
	home := s.HomeBase(1)
	if err := s.LoadASM(0, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #%d
    movi i3, #%d
    movi i7, #1
loop:
    ld i4, [i1]
    add i5, i4, #1
    send i3, i2, i5, #1
    brt i7, loop
`, home+16, s.RT.DIPRemoteWrite, home+24)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ { // warm every buffer up to steady state
		s.M.Step()
	}
	// AllocsPerRun truncates its average, so each run spans many cycles:
	// one allocation anywhere in the window reads as nonzero.
	const window = 500
	from := len(rec.Events)
	avg := testing.AllocsPerRun(4, func() {
		for i := 0; i < window; i++ {
			s.M.Step()
		}
	})
	if avg != 0 {
		t.Errorf("%d traced remote-traffic cycles allocate %.0f objects, want 0", window, avg)
	}
	if len(rec.Events) == cap(rec.Events) {
		t.Fatalf("recorder filled its pre-sized log (%d events)", len(rec.Events))
	}
	// The measured window must really cover the trace sites it claims.
	seen := map[string]bool{}
	for _, e := range rec.Events[from:] {
		if e.Kind == trace.MemIssue && e.Mem == mem.ReqRead {
			seen["remote load"] = true
		}
		if e.Kind == trace.Send && e.Node == 0 && e.Pri == 0 {
			seen["send"] = true
		}
		if e.Kind == trace.MsgRecv {
			seen[fmt.Sprintf("receive on node %d", e.Node)] = true
		}
	}
	for _, want := range []string{"remote load", "send", "receive on node 0", "receive on node 1"} {
		if !seen[want] {
			t.Errorf("measured cycles recorded no %s event", want)
		}
	}
}
