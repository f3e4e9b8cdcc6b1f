package wgen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// machineRunner runs phases straight on the machine; supervision is not
// what this test is about.
type machineRunner struct{ m *machine.Machine }

func (r machineRunner) RunPhase(n int64) (int64, error) { return r.m.Run(n) }

// TestPlainReadyMatchesWalkSeeds is the generated-scenario half of
// core's TestPlainReadyMatchesWalk: before every chip step of the naive
// engine, the issue stage's two-compare mask decision for each plain
// instruction must equal the op-by-op walk. Sweep scenarios run each
// point standalone (prefix + point from boot).
func TestPlainReadyMatchesWalkSeeds(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 32
	}
	checked, notReady := 0, 0
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		name, src := Source(seed)
		sc, err := core.ScenarioFromDSL(name+".wl", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plans := []*core.Scenario{sc}
		if sc.Plan.Sweep != nil {
			plans = plans[:0]
			for i := range sc.Plan.Sweep.Points {
				plans = append(plans, &core.Scenario{Name: sc.Name, Plan: sc.Plan.PointPlan(i)})
			}
		}
		for _, one := range plans {
			s, err := one.NewSim(core.Options{NaiveEngine: true})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var first error
			s.M.SetFaultProbe(func(node int, cycle int64) {
				n, stalled, err := s.M.Chip(node).CheckPlainReady(cycle)
				checked += n
				notReady += stalled
				if err != nil && first == nil {
					first = err
				}
			})
			run := one.NewRun(s)
			for !run.Done() && err == nil {
				_, err = run.Advance(machineRunner{s.M}, 0)
			}
			s.M.Close()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if first != nil {
				t.Fatalf("seed %d: %v", seed, first)
			}
		}
	}
	if checked == 0 || notReady == 0 || notReady == checked {
		t.Fatalf("compared %d plain ready decisions, %d not ready: both outcomes needed", checked, notReady)
	}
	t.Logf("compared %d plain ready decisions over %d seeds, %d not ready", checked, seeds, notReady)
}
