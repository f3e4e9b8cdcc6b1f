package main

// The -faults soak: a deterministic battery of injected failures
// (internal/faultinject) driven through the supervision layer
// (internal/guard), asserting the containment contracts CI relies on —
// an injected worker panic at a chosen (chip, cycle) surfaces as a
// *guard.CrashError naming that site under every engine; cycle budgets
// cut off at the same deterministic cycle under every engine; wall-clock
// stalls trip the watchdog; crash dumps restore at the crash cycle; and
// seeded corruptions of a snapshot stream are always rejected cleanly
// or round-trip as valid checkpoints, never panicking and never leaving
// the target half-mutated. Everything is seeded, so a soak failure
// reproduces exactly.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/guard"
)

// soakEngines are the engine configurations every containment contract
// is exercised under.
var soakEngines = []struct {
	name  string
	naive bool
}{
	{"naive", true},
	{"event", false},
}

const soakNodes = 6

// soakSpin boots a mesh where every node increments forever, the
// canonical runaway workload: always busy, never completing.
func soakSpin(naive bool) (*core.Sim, error) {
	s, err := core.NewSim(core.Options{Nodes: soakNodes, NaiveEngine: naive})
	if err != nil {
		return nil, err
	}
	for n := 0; n < soakNodes; n++ {
		if err := s.LoadASM(n, 0, 0, "spin:\n    add i1, i1, #1\n    br spin\n"); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// runFaultSoak executes the soak, printing one line per leg to w; any
// violated contract aborts with a descriptive error.
func runFaultSoak(w io.Writer) error {
	dir, err := os.MkdirTemp("", "mbench-faults")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Leg 1: injected panics at chosen (chip, cycle) sites, every engine.
	sites := []struct {
		node  int
		cycle int64
	}{{0, 100}, {4, 777}, {5, 2048}}
	for _, eng := range soakEngines {
		for _, site := range sites {
			s, err := soakSpin(eng.naive)
			if err != nil {
				return err
			}
			s.M.SetFaultProbe(faultinject.PanicAt(site.node, site.cycle))
			_, err = s.RunSupervised(1<<40, guard.Options{Timeout: time.Minute})
			var ce *guard.CrashError
			if !errors.As(err, &ce) {
				return fmt.Errorf("%s: injected panic at node %d cycle %d not contained: %v",
					eng.name, site.node, site.cycle, err)
			}
			if ce.Node != site.node || ce.Cycle != site.cycle {
				return fmt.Errorf("%s: crash reported at node %d cycle %d, injected at node %d cycle %d",
					eng.name, ce.Node, ce.Cycle, site.node, site.cycle)
			}
			s.M.Close()
		}
	}
	fmt.Fprintf(w, "faults: %d injected panics contained at their exact sites across %d engines\n",
		len(sites)*len(soakEngines), len(soakEngines))

	// Leg 2: cycle budgets cut off at the same deterministic cycle under
	// every engine.
	const budget = 3000
	for _, eng := range soakEngines {
		s, err := soakSpin(eng.naive)
		if err != nil {
			return err
		}
		_, err = s.RunSupervised(1<<40, guard.Options{CycleBudget: budget})
		var se *guard.StallError
		if !errors.As(err, &se) || se.Kind != guard.StallBudget {
			return fmt.Errorf("%s: budget did not trip: %v", eng.name, err)
		}
		if s.M.Cycle != budget {
			return fmt.Errorf("%s: budget stopped at cycle %d, want exactly %d", eng.name, s.M.Cycle, budget)
		}
		s.M.Close()
	}
	fmt.Fprintf(w, "faults: %d-cycle budget cut off at exactly cycle %d under every engine\n", budget, budget)

	// Leg 3: a wall-clock stall (injected per-step delay) trips the
	// watchdog with a diagnostic attached.
	{
		s, err := soakSpin(false)
		if err != nil {
			return err
		}
		s.M.SetFaultProbe(faultinject.StallAt(0, 0, 2*time.Millisecond))
		_, err = s.RunSupervised(1<<40, guard.Options{Timeout: 100 * time.Millisecond})
		var se *guard.StallError
		if !errors.As(err, &se) || se.Kind != guard.StallTimeout {
			return fmt.Errorf("stall: watchdog did not trip: %v", err)
		}
		if se.Diagnostic == "" {
			return fmt.Errorf("stall: no diagnostic attached")
		}
		s.M.Close()
		fmt.Fprintf(w, "faults: injected stall tripped the wall-clock watchdog with a diagnostic\n")
	}

	// Leg 4: the crash dump written at an injected panic restores at the
	// crash cycle.
	{
		dump := dir + "/crash.msnap"
		s, err := soakSpin(false)
		if err != nil {
			return err
		}
		s.M.SetFaultProbe(faultinject.PanicAt(2, 500))
		_, err = s.RunSupervised(1<<40, guard.Options{Timeout: time.Minute, DumpPath: dump})
		var ce *guard.CrashError
		if !errors.As(err, &ce) || ce.DumpPath != dump {
			return fmt.Errorf("crash dump not written: %v", err)
		}
		s.M.Close()
		r, err := core.NewSim(core.Options{Nodes: soakNodes})
		if err != nil {
			return err
		}
		f, err := os.Open(dump)
		if err != nil {
			return err
		}
		err = r.M.Restore(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("crash dump does not restore: %v", err)
		}
		if r.M.Cycle != 500 {
			return fmt.Errorf("crash dump restored at cycle %d, want the crash cycle 500", r.M.Cycle)
		}
		r.M.Close()
		fmt.Fprintf(w, "faults: crash dump restored at the crash cycle\n")
	}

	// Leg 5: seeded snapshot-stream corruption. Every mutation must be
	// rejected cleanly (target provably untouched) or accepted as a valid
	// round-trippable checkpoint; a panic anywhere fails the soak.
	{
		const mutations = 48
		s, err := soakSpin(false)
		if err != nil {
			return err
		}
		if _, err := s.RunSupervised(1<<40, guard.Options{CycleBudget: 1000}); err == nil {
			return fmt.Errorf("corrupt: spin workload claimed completion")
		}
		var baseline bytes.Buffer
		if err := s.M.Save(&baseline); err != nil {
			return err
		}
		c := faultinject.NewCorrupter(0xdecade)
		rejected := 0
		for i := 0; i < mutations; i++ {
			bad := c.Mutate(baseline.Bytes())
			if err := s.M.Restore(bytes.NewReader(bad)); err != nil {
				var after bytes.Buffer
				if err := s.M.Save(&after); err != nil {
					return err
				}
				if !bytes.Equal(baseline.Bytes(), after.Bytes()) {
					return fmt.Errorf("corrupt: mutation %d rejected but the machine was left half-mutated", i)
				}
				rejected++
				continue
			}
			// Accepted: must round-trip, then reset to the baseline.
			var again bytes.Buffer
			if err := s.M.Save(&again); err != nil {
				return err
			}
			if err := s.M.Restore(bytes.NewReader(again.Bytes())); err != nil {
				return fmt.Errorf("corrupt: mutation %d accepted but does not round-trip: %v", i, err)
			}
			if err := s.M.Restore(bytes.NewReader(baseline.Bytes())); err != nil {
				return err
			}
		}
		s.M.Close()
		fmt.Fprintf(w, "faults: %d seeded stream corruptions handled (%d rejected cleanly, %d valid round trips)\n",
			mutations, rejected, mutations-rejected)
	}

	fmt.Fprintf(w, "faults: soak OK\n")
	return nil
}
