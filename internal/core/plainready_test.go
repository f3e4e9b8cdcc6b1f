package core

// Differential test of the issue stage's fast path (DESIGN.md, "The cycle
// engine"): for a plain instruction the ready decision is two mask
// compares against the scoreboards, and it must agree with the op-by-op
// opReady walk every other instruction takes. The check runs from a
// machine fault probe before every chip step of the naive engine, over
// the engine-matrix workloads and every checked-in scenario. wgen seeds
// get the same check in internal/wgen.

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/noc"
)

// plainReadyTally accumulates CheckPlainReady results over a run.
type plainReadyTally struct {
	checked, notReady int
	err               error
}

// watch installs the check on every chip step of m.
func (p *plainReadyTally) watch(m *machine.Machine) {
	m.SetFaultProbe(func(node int, cycle int64) {
		n, stalled, err := m.Chip(node).CheckPlainReady(cycle)
		p.checked += n
		p.notReady += stalled
		if err != nil && p.err == nil {
			p.err = err
		}
	})
}

// machineRunner runs phases straight on the machine; supervision is not
// what this test is about.
type machineRunner struct{ m *machine.Machine }

func (r machineRunner) RunPhase(n int64) (int64, error) { return r.m.Run(n) }

// runScenarioChecked runs sc (every sweep point standalone) on the naive
// engine under the check.
func runScenarioChecked(sc *Scenario, p *plainReadyTally) error {
	plans := []*Scenario{sc}
	if sc.Plan.Sweep != nil {
		plans = plans[:0]
		for i := range sc.Plan.Sweep.Points {
			plans = append(plans, &Scenario{Name: sc.Name, Plan: sc.Plan.PointPlan(i)})
		}
	}
	for _, one := range plans {
		s, err := one.NewSim(Options{NaiveEngine: true})
		if err != nil {
			return err
		}
		p.watch(s.M)
		run := one.NewRun(s)
		for !run.Done() && err == nil {
			_, err = run.Advance(machineRunner{s.M}, 0)
		}
		s.M.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func TestPlainReadyMatchesWalk(t *testing.T) {
	var total plainReadyTally
	check := func(t *testing.T, p *plainReadyTally) {
		t.Helper()
		if p.err != nil {
			t.Fatal(p.err)
		}
		total.checked += p.checked
		total.notReady += p.notReady
	}
	for _, dims := range []noc.Coord{{X: 2, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 1}, {X: 4, Y: 2, Z: 2}} {
		n := dims.X * dims.Y * dims.Z
		if testing.Short() && n > 4 {
			continue
		}
		for _, w := range meshWorkloads(n) {
			t.Run(fmt.Sprintf("%dx%dx%d/%s", dims.X, dims.Y, dims.Z, w.name), func(t *testing.T) {
				s, err := NewSim(Options{Dims: dims, NaiveEngine: true})
				if err != nil {
					t.Fatal(err)
				}
				defer s.M.Close()
				if err := w.load(s); err != nil {
					t.Fatal(err)
				}
				var p plainReadyTally
				p.watch(s.M)
				if _, err := s.Run(3_000_000); err != nil {
					t.Fatal(err)
				}
				check(t, &p)
			})
		}
	}
	files, err := filepath.Glob(filepath.Join(workloadDir, "*.wl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			sc, err := ScenarioFromFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var p plainReadyTally
			if err := runScenarioChecked(sc, &p); err != nil {
				t.Fatal(err)
			}
			check(t, &p)
		})
	}
	// Both outcomes must have been exercised, or the comparison proves
	// nothing.
	if total.checked == 0 || total.notReady == 0 || total.notReady == total.checked {
		t.Fatalf("compared %d plain ready decisions, %d not ready: both outcomes needed",
			total.checked, total.notReady)
	}
	t.Logf("compared %d plain ready decisions, %d not ready", total.checked, total.notReady)
}
