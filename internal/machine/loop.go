package machine

import "fmt"

// Activity is what the run-loop head reads of an engine: the quantities
// that decide completion.
type Activity struct {
	Running  int    // running user H-Threads
	Busy     int    // chips with outstanding work (!chip.Quiescent)
	Issued   uint64 // instructions issued, machine total
	NetQuiet bool   // the network holds no message
}

// quiet reports whether nothing is left to do but confirm completion.
func (a Activity) quiet() bool { return a.Running == 0 && a.Busy == 0 && a.NetQuiet }

// Engine is one cycle-stepping backend of the run loop, the one place
// that decides when a run ends: the in-process Machine (Run, RunExact),
// or internal/dist's Coordinator, whose step is a lockstep exchange with
// shard workers.
type Engine interface {
	// Now is the engine's clock: the next cycle Step executes.
	Now() int64
	// Activity reports the loop-head quantities at Now.
	Activity() Activity
	// Head runs at every loop head after the completion checks, just
	// before the step (the running Loop's AtStep is set meanwhile). A
	// non-nil error ends the run with that error: stop requests and failed
	// checkpoints.
	Head() error
	// Step executes cycle Now and advances the clock by one.
	Step() error
	// NextEvent reports the earliest cycle >= Now at which any component
	// can act (see Machine.NextEvent); Now itself disables fast-forward.
	NextEvent() int64
	// Skip advances the clock d cycles during which, by NextEvent, no
	// component acts.
	Skip(d int64)
	// FaultError reports the first user-thread fault, nil if none.
	FaultError() error
}

// Loop is a run's position in the run loop: everything the loop carries
// from one loop head to the next beyond the engine's own state. An
// engine that checkpoints mid-run runs a Loop it owns, saves a copy from
// its Head hook, and resumes a rewound run by calling Run on that copy.
type Loop struct {
	Start int64 // cycle the run began at
	Max   int64 // the cycle limit: Run's maxCycles, or RunExact's n
	// Exact advances exactly Max cycles: no completion detection and no
	// fast-forward.
	Exact bool
	Idle  int64 // consecutive quiet loop heads, the quiet-window counter
	// AtStep marks a position whose loop-head checks are done, so the
	// next iteration starts at the step.
	AtStep bool
}

// Run drives e until all user threads are done and the engine has been
// quiescent (no queued work and no instruction issued) for QuietWindow
// cycles, or Max cycles elapse. It returns the cycles executed since
// Start (excluding the quiet window) and an error on timeout, on a
// user-thread fault, or from the engine's Head or Step. In Exact mode it
// steps exactly to Start+Max and returns Max. After each step it
// fast-forwards the clock over cycles in which no component can act; the
// engine's Skip replays their only observable effects (per-cycle stall
// statistics), so results stay bit-identical to stepping every cycle.
func (l *Loop) Run(e Engine) (int64, error) {
	end := l.Start + l.Max
	if !l.Exact {
		end += QuietWindow
	}
	// At a loop head whose checks are done, the previous issue count
	// equals the current one, so entry and resume share one baseline.
	prevIssued := e.Activity().Issued
	for e.Now() < end {
		if !l.AtStep {
			if !l.Exact {
				a := e.Activity()
				if a.quiet() && a.Issued == prevIssued {
					l.Idle++
					if l.Idle >= QuietWindow {
						return e.Now() - l.Start - l.Idle, e.FaultError()
					}
				} else {
					prevIssued, l.Idle = a.Issued, 0
				}
			}
			l.AtStep = true
			if err := e.Head(); err != nil {
				return e.Now() - l.Start, err
			}
		}
		l.AtStep = false
		if err := e.Step(); err != nil {
			return e.Now() - l.Start, err
		}
		if !l.Exact {
			l.fastForward(e, end)
		}
	}
	if l.Exact {
		return l.Max, nil
	}
	if e.Activity().Running == 0 {
		return e.Now() - l.Start, e.FaultError()
	}
	return e.Now() - l.Start, fmt.Errorf("machine: %w within %d cycles", ErrCycleLimit, l.Max)
}

// fastForward jumps the clock to the engine's next event (clamped to
// end), emulating the loop-head bookkeeping for every skipped iteration.
// State is frozen across the window, so the per-iteration checks are
// constant: either the engine is done and quiescent — each skipped
// iteration increments the idle counter, and the jump must stop one cycle
// before the counter reaches the quiet window so the next real iteration
// returns exactly where a per-cycle loop would — or it is not, and each
// iteration resets the counter.
func (l *Loop) fastForward(e Engine, end int64) {
	d := min(e.NextEvent(), end) - e.Now()
	if d <= 0 {
		return
	}
	if e.Activity().quiet() {
		// The issue count cannot have changed (an issue would have set
		// the issuing chip's NextEvent to the very next cycle), so every
		// skipped iteration takes the idle++ branch.
		room := QuietWindow - l.Idle - 1
		if room <= 0 {
			return
		}
		if d > room {
			d = room
		}
		l.Idle += d
	} else {
		l.Idle = 0
	}
	e.Skip(d)
}

// engine is the in-process Machine as a run-loop Engine.
type engine Machine

func (e *engine) Now() int64 { return e.Cycle }

func (e *engine) Activity() Activity {
	return Activity{Running: e.runningUser, Busy: e.busyChips, Issued: e.issuedTotal, NetQuiet: e.Net.Quiescent()}
}

// Head is the machine's supervision point: the stop flag and progress
// gauge cost one atomic load and one atomic store per loop iteration.
// Stopping cannot change simulated state — the run merely ends between
// two cycles.
func (e *engine) Head() error {
	e.cycleGauge.Store(e.Cycle)
	if e.stopReq.Load() {
		return fmt.Errorf("machine: run stopped at cycle %d: %w", e.Cycle, ErrStopped)
	}
	return nil
}

func (e *engine) Step() error {
	(*Machine)(e).Step()
	return nil
}

// NextEvent disables fast-forward under the naive reference engine.
func (e *engine) NextEvent() int64 {
	if e.Naive {
		return e.Cycle
	}
	return (*Machine)(e).NextEvent(e.Cycle)
}

func (e *engine) Skip(d int64) {
	for _, c := range e.Chips {
		c.SkipCycles(d)
	}
	e.Cycle += d
}

func (e *engine) FaultError() error { return (*Machine)(e).FaultError() }
