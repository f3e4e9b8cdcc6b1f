package machine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/rt"
	"repro/internal/trace"
)

// runWorkload boots a fresh machine, runs a mixed multi-node workload, and
// returns a fingerprint of its observable state.
func runWorkload(t *testing.T) string {
	t.Helper()
	m, _ := newMachine(t, 2, rt.Options{Caching: true})
	loadUser(t, m, 0, 0, 0, `
    movi i1, #4096
    movi i2, #0
    movi i3, #20
loop:
    st [i1], i2
    ld i4, [i1]
    add i5, i5, i4
    add i1, i1, #3
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`)
	loadUser(t, m, 1, 0, 0, `
    movi i1, #64
    movi i2, #0
    movi i3, #30
loop:
    st [i1], i2
    add i1, i1, #9
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`)
	cycles, err := m.Run(500000)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("cycles=%d i5=%d insts=%d/%d msgs=%d hops=%d ltlb=%d/%d status=%d/%d",
		cycles, reg(m, 0, 0, 0, 5),
		m.Chip(0).InstsIssued, m.Chip(1).InstsIssued,
		m.Net.Injected, m.Net.TotalHops,
		m.Chip(0).Mem.LTLBFaults, m.Chip(1).Mem.LTLBFaults,
		m.Chip(0).Mem.StatusFaults, m.Chip(1).Mem.StatusFaults)
}

// TestDeterminism: the simulator must be bit-reproducible — identical runs
// produce identical cycle counts and statistics (DESIGN.md: deterministic,
// single-goroutine cycle loop with fixed arbitration order).
func TestDeterminism(t *testing.T) {
	first := runWorkload(t)
	for i := 0; i < 3; i++ {
		if got := runWorkload(t); got != first {
			t.Fatalf("run %d diverged:\n  %s\nvs\n  %s", i+2, got, first)
		}
	}
}

// TestDeterminismMixedEngines interleaves the naive reference engine with
// the event engine on one machine — every cycle sequence must still match
// a pure event-engine run bit for bit. This pins the StepAll arrival
// bookkeeping: a forced naive step must ingest its deliveries into the
// tracked arrival set, or the next event step leaves a runnable chip
// asleep.
func TestDeterminismMixedEngines(t *testing.T) {
	build := func() (*machine.Machine, *strings.Builder) {
		const nodes = 4
		cfg := machine.DefaultConfig()
		cfg.Dims = noc.Coord{X: nodes, Y: 1, Z: 1}
		m := machine.New(cfg)
		if _, err := rt.Install(m, rt.Options{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			if err := m.MapNodeRange(uint64(i)*4096, 4, i); err != nil {
				t.Fatal(err)
			}
		}
		var tr strings.Builder
		m.SetTrace(func(e trace.Event) {
			fmt.Fprintf(&tr, "%d %d %s %s\n", e.Cycle, e.Node, e.Name(), e.Detail())
		})
		// Node 0 streams remote stores into the other nodes' home ranges, so
		// deliveries and handler dispatches land on otherwise-idle chips
		// throughout the run.
		loadUser(t, m, 0, 0, 0, `
    movi i1, #4096
    movi i2, #0
    movi i3, #36
loop:
    st [i1], i2
    add i1, i1, #341
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`)
		m.WakeAll()
		return m, &tr
	}
	ref, refTrace := build() // pure event engine
	mix, mixTrace := build() // event engine, naive phases interleaved
	const cycles = 6000
	for i := 0; i < cycles; i++ {
		ref.Step()
		mix.Naive = (i/5)%2 == 1 // flip engines every 5 cycles
		mix.Step()
	}
	if refTrace.String() != mixTrace.String() {
		t.Errorf("trace streams diverged between pure and mixed engine runs")
	}
	for n := 0; n < 4; n++ {
		a, b := ref.Chip(n), mix.Chip(n)
		if a.InstsIssued != b.InstsIssued || a.Thread(0, 0).StallCycles != b.Thread(0, 0).StallCycles {
			t.Errorf("node %d stats diverged: insts %d vs %d, stalls %d vs %d",
				n, a.InstsIssued, b.InstsIssued,
				a.Thread(0, 0).StallCycles, b.Thread(0, 0).StallCycles)
		}
	}
	if got, want := reg(mix, 0, 0, 0, 2), reg(ref, 0, 0, 0, 2); got != want {
		t.Errorf("final i2: mixed %d vs pure %d", got, want)
	}
}
