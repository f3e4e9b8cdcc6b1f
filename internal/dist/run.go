package dist

// Scenario execution on the distributed engine: the same DSL pipeline as
// core.Scenario.Run, with the coordinator (clamped by guard.Budget)
// standing in for the in-process supervisor as the core.PhaseRunner.
// Non-run plan steps (map, poke, load, expect, check) execute against the
// hub machine, which is always authoritative between run phases; run
// phases are farmed out to the shard workers and reassembled. A scenario
// run here is bit-identical to an in-process run — same cycle counts,
// same trace stream, same final machine digest — including runs that
// lost and recovered shards along the way.

import (
	"cmp"
	"errors"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/machine"
)

// RunResult is a distributed scenario run's outcome: the scenario result
// (its Digest is the final machine digest) plus the supervision history.
type RunResult struct {
	*core.ScenarioResult
	Shards      int
	Failures    []FailureRecord
	Recoveries  int
	Checkpoints int
}

// RunScenario boots a hub simulator for sc, launches cfg.Shards workers,
// and drives the plan to completion distributed. The scenario file's
// cycle budget (or o.CycleBudget) clamps run phases through guard.Budget,
// the supervisor's own clamp, surfacing exhaustion as a
// *guard.StallError. The returned Sim's machine is closed but readable,
// as after Scenario.RunSim.
func RunScenario(sc *core.Scenario, o core.Options, cfg Config) (*RunResult, *core.Sim, error) {
	if sc.Plan.Sweep != nil {
		// Sweep points fork the hub machine mid-run; sharded workers
		// can't follow a fork. Run sweeps in-process (Scenario.Run).
		return nil, nil, errors.New("dist: sweep scenarios are not supported on the distributed engine")
	}
	// The hub's chips never step; it is only a state store, so pin the
	// default engine regardless of the caller's choice.
	o.NaiveEngine = false
	s, err := sc.NewSim(o)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Trace == nil {
		// Worker trace events merge into the hub recorder, in the serial
		// engines' order, alongside hub-side (plan step) events.
		cfg.Trace = s.Recorder.Hook()
	}
	co, err := New(s.M, cfg)
	if err != nil {
		s.M.Close()
		return nil, s, err
	}
	defer co.Close()

	rp := guard.Budget{M: s.M, Leg: co, Base: s.M.Cycle, Limit: cmp.Or(o.CycleBudget, sc.Plan.CycleBudget)}

	run := sc.NewRun(s)
	for !run.Done() {
		if _, err := run.Advance(rp, 0); err != nil {
			s.M.Close()
			return nil, s, err
		}
	}
	res := run.Result()
	res.Digest, err = machine.Digest(s.M)
	s.M.Close()
	if err != nil {
		return nil, s, err
	}
	return &RunResult{
		ScenarioResult: res,
		Shards:         co.Shards(),
		Failures:       co.Failures(),
		Recoveries:     co.Recoveries(),
		Checkpoints:    co.Checkpoints(),
	}, s, nil
}
