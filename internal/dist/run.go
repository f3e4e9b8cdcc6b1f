package dist

// Scenario execution on the distributed engine: the same DSL pipeline as
// core.Scenario.Run, with the coordinator standing in for the in-process
// supervisor as the core.PhaseRunner. Non-run plan steps (map, poke,
// load, expect, check) execute against the hub machine, which is always
// authoritative between run phases; run phases are farmed out to the
// shard workers and reassembled. A scenario run here is bit-identical to
// an in-process run — same cycle counts, same trace stream, same final
// machine digest — including runs that lost and recovered shards along
// the way.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/machine"
)

// RunResult is a distributed scenario run's outcome: the scenario result
// plus the supervision history and the final machine digest.
type RunResult struct {
	*core.ScenarioResult
	Digest      string // sha256 of the final machine snapshot
	Shards      int
	Failures    []FailureRecord
	Recoveries  int
	Checkpoints int
}

// RunScenario boots a hub simulator for sc, launches cfg.Shards workers,
// and drives the plan to completion distributed. The scenario file's
// cycle budget (or o.CycleBudget) clamps run phases with
// guard.Supervisor.RunPhase's exact arithmetic, surfacing exhaustion as
// a *guard.StallError. The returned Sim's machine is closed but
// readable, as after Scenario.RunSim.
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

	budget := o.CycleBudget
	if budget == 0 {
		budget = sc.Plan.CycleBudget
	}
	var rp core.PhaseRunner = co
	if budget > 0 {
		rp = &budgetRunner{co: co, m: s.M, base: s.M.Cycle, budget: budget}
	}

	run := sc.NewRun(s)
	for !run.Done() {
		if _, err := run.Advance(rp, 0); err != nil {
			s.M.Close()
			return nil, s, err
		}
	}
	res := run.Result()
	digest, err := Digest(s.M)
	s.M.Close()
	if err != nil {
		return nil, s, err
	}
	return &RunResult{
		ScenarioResult: res,
		Digest:         digest,
		Shards:         co.Shards(),
		Failures:       co.Failures(),
		Recoveries:     co.Recoveries(),
		Checkpoints:    co.Checkpoints(),
	}, s, nil
}

// Digest is the canonical state fingerprint: the hex sha256 of the full
// machine snapshot. Two runs with equal digests hold bit-identical
// machine state.
func Digest(m *machine.Machine) (string, error) {
	h := sha256.New()
	if err := m.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// budgetRunner adds the scenario-wide cycle budget on top of the
// coordinator, replicating guard.Supervisor.RunPhase's clamp arithmetic
// exactly so budget exhaustion lands on the identical cycle as an
// in-process run, and surfaces as the same *guard.StallError.
type budgetRunner struct {
	co           *Coordinator
	m            *machine.Machine
	base, budget int64
}

func (b *budgetRunner) RunPhase(maxCycles int64) (int64, error) {
	rem := b.budget - (b.m.Cycle - b.base)
	budgetErr := func() *guard.StallError {
		return &guard.StallError{Kind: guard.StallBudget, Cycle: b.m.Cycle, Budget: b.budget}
	}
	if rem <= 0 {
		return 0, budgetErr()
	}
	if maxCycles+machine.QuietWindow <= rem {
		return b.co.RunPhase(maxCycles)
	}
	if bound := rem - machine.QuietWindow; bound > 0 {
		n, err := b.co.RunPhase(bound)
		if err != nil && errors.Is(err, machine.ErrCycleLimit) {
			return n, budgetErr()
		}
		return n, err
	}
	// Less budget than one quiet window: the exact remainder, cycle by
	// cycle, then exhaustion.
	if err := b.co.RunExact(rem); err != nil {
		return rem, fmt.Errorf("dist: budget tail: %w", err)
	}
	return rem, budgetErr()
}
