package main

// In-process execution through the simulator's public pieces: boot with
// Scenario.NewSim, step with ScenarioRun.Advance under a guard
// supervisor, fork with Sim.Fork, fingerprint with Sim.Save. This is the
// path Scenario.Run takes, taken apart so each layer call can carry a
// span; the untraced jobs call Scenario.Run itself, and the verification
// requires both to produce identical fingerprints.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/workload"
)

// drive runs sc on fresh machines and returns the result Scenario.Run
// would return, plus the job's simulated counters. slice > 0 advances
// run phases in slices of that many cycles under one supervised call per
// slice, the way the session service executes a session (a different,
// equally deterministic execution from the unsliced one). Sweeps run
// their staging prefix once and every point on a Fork of it; the
// generated sweeps never sweep the mesh, so every point can fork.
func drive(sc *core.Scenario, sp scope, slice int64) (*core.ScenarioResult, counters, error) {
	plan := sc.Plan
	stage := sc
	if plan.Sweep != nil {
		stage = &core.Scenario{Name: sc.Name, Plan: &workload.Plan{
			Title: plan.Title, Dims: plan.Dims, Caching: plan.Caching,
			Deadline: plan.Deadline, CycleBudget: plan.CycleBudget, Steps: plan.Steps,
		}}
	}
	b := sp.begin("core.boot")
	s, err := stage.NewSim(core.Options{})
	b.end()
	if err != nil {
		return nil, counters{}, err
	}
	res, err := advanceAll(stage, s, sp, slice)
	if err != nil {
		closeUnlessHung(s, err)
		return nil, counters{}, err
	}
	var total counters
	if plan.Sweep != nil {
		staged := readCounters(s)
		total = staged
		for i := range plan.Sweep.Points {
			pt := &plan.Sweep.Points[i]
			point := &core.Scenario{Name: sc.Name, Plan: &workload.Plan{
				Title: pt.Name, Dims: pt.Dims, Caching: plan.Caching,
				Deadline: plan.Deadline, CycleBudget: pt.CycleBudget, Steps: pt.Steps,
			}}
			f := sp.begin("snap.fork")
			ps, err := s.Fork()
			f.end()
			if err != nil {
				s.M.Close()
				return nil, counters{}, err
			}
			pr, err := advanceAll(point, ps, sp, slice)
			if err != nil {
				closeUnlessHung(ps, err)
				s.M.Close()
				return nil, counters{}, fmt.Errorf("sweep point %s: %w", pt.Name, err)
			}
			d, err := digest(ps, sp)
			ps.M.Close()
			if err != nil {
				s.M.Close()
				return nil, counters{}, err
			}
			// A fork starts a fresh trace recorder, so its events are
			// all the point's own; every other counter carries over.
			pc := readCounters(ps)
			events := pc[cEvents]
			pc = pc.minus(staged)
			pc[cEvents] = events
			total.add(pc)
			out := core.PointResult{Name: pt.Name, TotalCycles: ps.M.Cycle, Checks: pr.Checks, Digest: d}
			for _, ph := range pr.Phases {
				out.Phases = append(out.Phases, core.PhaseResult{Name: pt.Name + "/" + ph.Name, Cycles: ph.Cycles})
			}
			res.Phases = append(res.Phases, out.Phases...)
			res.Checks += out.Checks
			res.Points = append(res.Points, out)
		}
	} else {
		total = readCounters(s)
	}
	res.Digest, err = digest(s, sp)
	s.M.Close()
	if err != nil {
		return nil, counters{}, err
	}
	return res, total, nil
}

// advanceAll executes sc's plan on s quantum by quantum.
func advanceAll(sc *core.Scenario, s *core.Sim, sp scope, slice int64) (*core.ScenarioResult, error) {
	run := sc.NewRun(s)
	sup := guard.New(s.M, guard.Options{Timeout: sc.Plan.Deadline, CycleBudget: sc.Plan.CycleBudget})
	quantum := func() error {
		step, _ := run.Pos()
		name := "core.step"
		if sc.Plan.Steps[step].Kind == workload.PlanRun {
			name = "machine.advance"
		}
		q := sp.begin(name)
		_, err := run.Advance(sup, slice)
		q.end()
		return err
	}
	var err error
	if slice > 0 {
		for err == nil && !run.Done() {
			err = sup.Do(quantum)
		}
	} else {
		err = sup.Do(func() error {
			for !run.Done() {
				if err := quantum(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return run.Result(), nil
}

func closeUnlessHung(s *core.Sim, err error) {
	if !guard.IsHang(err) {
		s.M.Close()
	}
}

// digest is the machine-state fingerprint Scenario.Run, the session
// service and the distributed engine all report: the hex sha256 of the
// snapshot stream.
func digest(s *core.Sim, sp scope) (string, error) {
	d := sp.begin("core.digest")
	defer d.end()
	h := sha256.New()
	if err := s.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fingerprint condenses everything simulated a result reports: final
// digests, cycle counts, checks and machine counters.
func fingerprint(r *core.ScenarioResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d %+v\n", r.Digest, r.TotalCycles, r.Checks, r.Stats)
	for _, p := range r.Phases {
		fmt.Fprintf(h, "phase %s %d\n", p.Name, p.Cycles)
	}
	for _, p := range r.Points {
		fmt.Fprintf(h, "point %s %d %d %s\n", p.Name, p.TotalCycles, p.Checks, p.Digest)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// counters are a job's simulated per-layer counts, summed over nodes.
type counters [numCounters]uint64

const (
	cOps = iota
	cCycles
	cNodeCycles
	cStall
	cSendsBlocked
	cMsgsReturned
	cCacheHits
	cCacheMisses
	cWritebacks
	cRowHits
	cRowMisses
	cLTLBHits
	cLTLBMisses
	cLTLBFaults
	cSyncFaults
	cGTLBHits
	cGTLBMisses
	cDelivered
	cHops
	cEvents
	numCounters
)

var counterNames = [numCounters]string{
	"ops", "cycles", "node_cycles", "stall_cycles", "sends_blocked", "msgs_returned",
	"cache_hits", "cache_misses", "writebacks", "sdram_row_hits", "sdram_row_misses",
	"ltlb_hits", "ltlb_misses", "ltlb_faults", "sync_faults", "gtlb_hits", "gtlb_misses",
	"noc_delivered", "noc_hops", "trace_events",
}

func readCounters(s *core.Sim) counters {
	var c counters
	m := s.M
	c[cCycles] = uint64(m.Cycle)
	c[cNodeCycles] = uint64(m.Cycle) * uint64(m.NumNodes())
	c[cDelivered] = m.Net.Delivered
	c[cHops] = m.Net.TotalHops
	c[cEvents] = uint64(len(s.Recorder.Events))
	for _, ch := range m.Chips {
		c[cOps] += ch.OpsIssued
		c[cSendsBlocked] += ch.SendsBlocked
		c[cMsgsReturned] += ch.MsgsReturned
		for v := 0; v < isa.NumVThreads; v++ {
			for cl := 0; cl < isa.NumClusters; cl++ {
				c[cStall] += ch.Thread(v, cl).StallCycles
			}
		}
		mm := ch.Mem
		c[cCacheHits] += mm.Cache.Hits
		c[cCacheMisses] += mm.Cache.Misses
		c[cWritebacks] += mm.Cache.Writebacks
		c[cRowHits] += mm.SDRAM.RowHits
		c[cRowMisses] += mm.SDRAM.RowMisses
		c[cLTLBHits] += mm.LTLB.Hits
		c[cLTLBMisses] += mm.LTLB.Misses
		c[cLTLBFaults] += mm.LTLBFaults
		c[cSyncFaults] += mm.SyncFaults
		c[cGTLBHits] += ch.GTLB.Hits
		c[cGTLBMisses] += ch.GTLB.Misses
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}
