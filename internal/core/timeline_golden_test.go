package core_test

// Golden timeline corpus: trace.Timeline text of a fixed set of traced
// runs, compared byte for byte against testdata/timelines. The corpus
// spans the Figure 9 read and write timelines, checked-in scenarios (a
// sweep included, whose point events merge into the parent recorder),
// generated wgen-style seeds, a return-to-sender flood and protection
// faults, so together the runs emit every trace kind. Regenerate with
//
//	go test -run TestGoldenTimelines ./internal/core -update-timelines
//
// only for a change that deliberately alters simulated behaviour.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wgen"
)

var updateTimelines = flag.Bool("update-timelines", false, "rewrite testdata/timelines from the current build")

// goldenRun is one corpus entry: a traced run returning its events.
type goldenRun struct {
	name string
	run  func(t *testing.T) []trace.Event
}

func goldenRuns() []goldenRun {
	return []goldenRun{
		{"figure9-read", func(t *testing.T) []trace.Event { return figure9Events(t, false) }},
		{"figure9-write", func(t *testing.T) []trace.Event { return figure9Events(t, true) }},
		{"ringreduce", func(t *testing.T) []trace.Event { return scenarioFileEvents(t, "ringreduce.wl") }},
		{"sweepexchange", func(t *testing.T) []trace.Event { return scenarioFileEvents(t, "sweepexchange.wl") }},
		{"wgen-seed1", func(t *testing.T) []trace.Event { return wgenEvents(t, 1) }},
		{"wgen-seed73", func(t *testing.T) []trace.Event { return wgenEvents(t, 73) }},
		{"flood", floodEvents},
		{"protfault", protFaultEvents},
	}
}

func figure9Events(t *testing.T, isWrite bool) []trace.Event {
	t.Helper()
	events, err := core.Figure9Events(isWrite)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func scenarioFileEvents(t *testing.T, file string) []trace.Event {
	t.Helper()
	sc, err := core.ScenarioFromFile(filepath.Join("..", "..", "testdata", "workloads", file))
	if err != nil {
		t.Fatal(err)
	}
	_, s, err := sc.RunSim(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s.Recorder.Events
}

func wgenEvents(t *testing.T, seed uint64) []trace.Event {
	t.Helper()
	name, src := wgen.Source(seed)
	sc, err := core.ScenarioFromDSL(name+".wl", src)
	if err != nil {
		t.Fatal(err)
	}
	_, s, err := sc.RunSim(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s.Recorder.Events
}

// floodEvents is a small ThrottleExperiment: two senders overrun a
// three-message queue, so messages are rejected, returned and resent.
func floodEvents(t *testing.T) []trace.Event {
	t.Helper()
	cfg := core.DefaultChipConfig()
	cfg.SendCredits = 2
	cfg.MsgQueueCap = 9
	s, err := core.NewSim(core.Options{Nodes: 3, Chip: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	base := s.HomeBase(2)
	for sender := 0; sender < 2; sender++ {
		src := fmt.Sprintf(`
    movi i1, #%d
    movi i3, #%d
    movi i5, #0
    movi i6, #12
loop:
    add i8, i1, i5
    add i9, i1, i5
    send i9, i3, i8, #1
    add i5, i5, #2
    lt  i7, i5, i6
    brt i7, loop
    halt
`, base+uint64(sender), s.RT.DIPRemoteWrite)
		if err := s.LoadASM(sender, 0, 0, src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(200000); err != nil {
		t.Fatal(err)
	}
	return s.Recorder.Events
}

// protFaultEvents runs user threads that violate protection: a SEND to an
// untagged address and a privileged TLBW.
func protFaultEvents(t *testing.T) []trace.Event {
	t.Helper()
	s, err := core.NewSim(core.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadUserASM(0, 0, 0, `
    movi i1, #4096
    movi i2, #1
    movi i3, #7
    send i1, i2, i3, #1
    halt
`); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadUserASM(1, 1, 0, `
    movi i4, #0
    tlbw i4
    halt
`); err != nil {
		t.Fatal(err)
	}
	// The run stops with the first thread fault as its error.
	if _, err := s.Run(2000); err == nil {
		t.Fatal("protection faults did not stop the run")
	}
	return s.Recorder.Events
}

func TestGoldenTimelines(t *testing.T) {
	dir := filepath.Join("testdata", "timelines")
	var seen [trace.NumKinds + 1]bool
	runs, ran := goldenRuns(), 0
	for _, g := range runs {
		t.Run(g.name, func(t *testing.T) {
			ran++
			events := g.run(t)
			for _, e := range events {
				seen[e.Kind] = true
			}
			got := trace.Timeline(events)
			path := filepath.Join(dir, g.name+".txt")
			if *updateTimelines {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("timeline differs from %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
	if ran < len(runs) {
		return // a -run filter selected part of the corpus
	}
	for k := 1; k <= trace.NumKinds; k++ {
		if !seen[k] {
			t.Errorf("no corpus run records a %s event", trace.Kind(k))
		}
	}
}

// firstDiff names the first differing line of two timelines.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < min(len(wl), len(gl)); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(wl), len(gl))
}
