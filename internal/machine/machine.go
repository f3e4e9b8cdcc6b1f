// Package machine assembles a complete M-Machine: a 3-D mesh of MAP nodes
// (Figure 1), the shared global destination table, and the deterministic
// cycle loop that advances every node and the network in lock step.
//
// The lifecycle is New(Config) -> load programs / map pages -> Run (or
// Step/StepAll/RunUntil) -> Close. Two engines execute the cycle loop —
// the naive per-cycle reference (Naive=true / StepAll) and the default
// event-driven engine with idle fast-forward — and they are bit-identical
// in every observable way; see DESIGN.md ("The cycle engine").
//
// Machines checkpoint: Save serializes the complete simulation state to
// a versioned stream, Restore replaces a compatible machine's state
// all-or-nothing (a corrupt or mismatched stream errors and leaves the
// machine untouched), and Fork clones a machine through an in-memory
// snapshot for what-if runs. Snapshots are engine-agnostic: a stream
// saved under one engine restores and continues bit-identically under
// any other (DESIGN.md, "Checkpoint/restore").
package machine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chip"
	"repro/internal/cluster"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/trace"
)

// ErrStopped is wrapped into the error Run, RunExact and RunUntil return
// when an external stop request (RequestStop, or a Close racing the run)
// aborts the run before completion. The machine state is a consistent
// between-cycles state — the run simply ended early — so it can be
// inspected, snapshotted, or resumed. Detect with errors.Is.
var ErrStopped = errors.New("run stopped")

// ErrCycleLimit is wrapped into the error Run returns when the machine is
// still busy after maxCycles — cycle-budget exhaustion, as opposed to a
// thread fault or a stop request. Detect with errors.Is; supervisors use
// it to classify global-budget exhaustion (internal/guard).
var ErrCycleLimit = errors.New("no completion")

// NoEvent is the NextEvent sentinel meaning "no component will ever act
// again without external input" (see DESIGN.md, "The NextEvent contract").
const NoEvent = chip.NoEvent

// Config describes a machine.
type Config struct {
	Dims noc.Coord // mesh dimensions
	Chip chip.Config
}

// DefaultConfig returns a 2x1x1 machine (the two-node setup of the paper's
// Table 1 / Figure 9 measurements) with calibrated chip timing.
func DefaultConfig() Config {
	return Config{Dims: noc.Coord{X: 2, Y: 1, Z: 1}, Chip: chip.DefaultConfig()}
}

// Machine is a collection of nodes connected by the mesh.
type Machine struct {
	Cfg   Config
	Net   *noc.Network
	GDT   *gtlb.Table
	Chips []*chip.Chip

	Cycle int64

	// Naive selects the reference engine: Step advances every component
	// every cycle (StepAll) and Run never fast-forwards. The default
	// event-driven engine skips components whose NextEvent lies in the
	// future and jumps the clock over machine-wide idle stretches; both
	// engines produce bit-identical state, cycle counts, fault behavior,
	// and trace output (enforced by TestDeterminismEngines in core).
	Naive bool `snap:"derived,engine selection, never affects simulated results"`

	// nextPPN allocates physical pages per node for MapLocal; runtime
	// handlers allocate from a separate high region (see AllocBase).
	nextPPN []uint64

	// Supervision plumbing (DESIGN.md, "Supervised runs & fault
	// injection"). runMu serializes Run/RunUntil against Close, so a
	// session teardown can close a machine whose run is still in flight:
	// Close raises stopReq, the run observes it at its next loop head and
	// returns ErrStopped, and Close then proceeds under the lock. stopReq
	// is also the watchdog stop flag guard sets out-of-band; it is polled
	// only at the run-loop head (an existing O(1) sync point), so the
	// per-cycle hot path gains one uncontended atomic load and simulated
	// state is never affected — stopping only decides where the run ends,
	// never what any cycle computes. cycleGauge mirrors Cycle at the same
	// point so monitors on other goroutines can observe progress without
	// racing the engine. probe is the fault-injection hook (SetFaultProbe).
	runMu      sync.Mutex                  `snap:"derived,supervision plumbing"`
	stopReq    atomic.Bool                 `snap:"derived,supervision plumbing"`
	cycleGauge atomic.Int64                `snap:"derived,supervision plumbing"`
	probe      func(node int, cycle int64) `snap:"derived,fault-injection hook, reinstalled by the owner"`

	// arrivalNodes tracks the nodes with delivered-but-unconsumed network
	// messages (arrivalMark is its membership bitmap), maintained
	// incrementally from noc.Network.DeliveredNodes so per-cycle arrival
	// wake-ups cost O(affected nodes), not O(nodes). Used by the event
	// engines only; the naive loop steps everything anyway.
	arrivalNodes []int  `snap:"derived,rebuilt by recomputeActive after Restore"`
	arrivalMark  []bool `snap:"derived,rebuilt by recomputeActive after Restore"`

	// Run-loop activity counters: the loop head's quantities (Activity),
	// cached per chip with the machine totals maintained incrementally. A
	// chip's contribution can only change on a cycle it steps (every
	// thread transition, queue push, and issue happens inside Chip.Step,
	// and its outbox is drained before the counters are read), so
	// noteStepped refreshes exactly the stepped chips — O(active) per
	// cycle. recomputeActive rebuilds everything at run entry and after
	// Restore, covering external mutations (program loads, pokes).
	runningUser int      `snap:"derived,rebuilt by recomputeActive after Restore"` // running user H-Threads across all chips
	busyChips   int      `snap:"derived,rebuilt by recomputeActive after Restore"` // chips with outstanding work (!chip.Quiescent)
	issuedTotal uint64   `snap:"derived,rebuilt by recomputeActive after Restore"` // sum of per-chip InstsIssued
	chipRunning []int    `snap:"derived,rebuilt by recomputeActive after Restore"`
	chipBusy    []bool   `snap:"derived,rebuilt by recomputeActive after Restore"`
	chipIssued  []uint64 `snap:"derived,rebuilt by recomputeActive after Restore"`
	steppedBuf  []int    `snap:"derived,per-cycle scratch"` // serial event phase scratch: chips stepped this cycle
}

// Reserved physical layout (words). The LPT base comes from the memory
// config; the runtime scratch and page allocator sit just above it.
const (
	// FirstMapPPN is the first physical page used by MapLocal.
	FirstMapPPN = 16
)

// ScratchBase returns the physical address of the runtime scratch area.
func ScratchBase(c mem.Config) uint64 {
	return c.LPT.Base + c.LPT.Entries*mem.PTEWords
}

// AllocCounterAddr returns the physical word holding the runtime page
// allocator's next free PPN.
func AllocCounterAddr(c mem.Config) uint64 { return ScratchBase(c) + 64 }

// AllocBasePPN returns the first PPN handed out by the runtime allocator.
func AllocBasePPN(c mem.Config) uint64 {
	return (AllocCounterAddr(c) + 64 + mem.PageWords) / mem.PageWords
}

// New builds the machine: one chip per mesh coordinate, all sharing the
// network and GDT.
func New(cfg Config) *Machine {
	net := noc.New(cfg.Dims, cfg.Chip.Net)
	m := assemble(cfg, net, &gtlb.Table{})
	for i := range m.Chips {
		c := chip.New(cfg.Chip, net.CoordOf(i), i, net, m.GDT)
		// Initialize the runtime page allocator counter.
		c.Mem.SDRAM.Write(AllocCounterAddr(cfg.Chip.Mem), AllocBasePPN(cfg.Chip.Mem), false)
		m.Chips[i] = c
		m.nextPPN[i] = FirstMapPPN
	}
	return m
}

// assemble allocates a machine around net and gdt with its per-node
// bookkeeping; the caller fills in the chips (New builds them, Fork
// decodes them).
func assemble(cfg Config, net *noc.Network, gdt *gtlb.Table) *Machine {
	n := net.NumNodes()
	return &Machine{
		Cfg:         cfg,
		Net:         net,
		GDT:         gdt,
		Chips:       make([]*chip.Chip, n),
		nextPPN:     make([]uint64, n),
		arrivalMark: make([]bool, n),
		chipRunning: make([]int, n),
		chipBusy:    make([]bool, n),
		chipIssued:  make([]uint64, n),
	}
}

// Close ends the machine's session. It is safe to call concurrently with
// an in-flight Run, RunExact or RunUntil: it raises the stop request,
// waits for the run to observe it at its next loop head and return
// ErrStopped, and returns once no run holds the machine (the shutdown
// ordering a session server needs). Close is idempotent and optional; a
// machine holds no goroutines or other resources that outlive it.
func (m *Machine) Close() {
	m.stopReq.Store(true)
	m.runMu.Lock()
	defer m.runMu.Unlock()
	// The request has served its purpose once the lock is held; do not
	// poison a caller who runs again after Close.
	m.stopReq.Store(false)
}

// RequestStop asks an in-flight Run, RunExact or RunUntil to return at
// its next loop head with an error wrapping ErrStopped. It is safe from
// any goroutine — this is the watchdog stop flag (see internal/guard):
// the flag is polled only at the run-loop head, so it cannot change any
// simulated state, only where the run ends. The request is sticky until
// ClearStop; a Run entered with the flag raised returns immediately.
func (m *Machine) RequestStop() { m.stopReq.Store(true) }

// ClearStop lowers the stop flag. Supervisors call it before starting a
// supervised run so a stale request from a previous run cannot abort the
// new one.
func (m *Machine) ClearStop() { m.stopReq.Store(false) }

// CycleGauge reports the machine cycle most recently observed at a run's
// loop head. Unlike reading Cycle directly, it is safe from any
// goroutine while a run is in flight, which is what watchdog monitors
// need to distinguish a livelocked-but-advancing simulation from a
// wedged one. Between runs it lags Cycle (it is only updated inside
// Run/RunUntil).
func (m *Machine) CycleGauge() int64 { return m.cycleGauge.Load() }

// SetFaultProbe installs fn to be called immediately before every chip
// step, with the chip's node index and the current cycle — the
// fault-injection hook (see internal/faultinject). A panic out of fn is
// contained exactly like a panic out of the chip step itself. Install
// probes only between runs (the same contract as program loads); nil
// removes the probe. Probes are for tests and fault drills — the nil check
// they cost per stepped chip is the entire production overhead.
func (m *Machine) SetFaultProbe(fn func(node int, cycle int64)) { m.probe = fn }

// NumNodes returns the node count.
func (m *Machine) NumNodes() int { return len(m.Chips) }

// Chip returns node i's processor.
func (m *Machine) Chip(i int) *chip.Chip { return m.Chips[i] }

// StepAll advances the whole machine one cycle the naive way: every chip
// and the network step unconditionally. This is the reference (debug)
// engine the event-driven Step is validated against. The engines may be
// interleaved on one machine, so StepAll also keeps the tracked arrival
// set fed with this cycle's deliveries.
func (m *Machine) StepAll() {
	now := m.Cycle
	for i, c := range m.Chips {
		if m.probe != nil {
			m.probe(i, now)
		}
		c.Step(now)
	}
	m.drainChipOutput(now)
	for i := range m.Chips {
		m.noteStepped(i)
	}
	m.Net.Step(now)
	// The wakes are unobservable under naive stepping (only the event
	// engines consult wake cycles), so this costs nothing but keeps the
	// arrival set exact for a later event-engine step.
	m.wakeArrivals(now, true)
	m.Cycle++
}

// Step advances the whole machine one cycle. The event-driven engine steps
// only the chips whose NextEvent is due; a skipped chip replays its idle
// stat side effects via SkipCycles, so observable state evolves exactly as
// under StepAll. The network walk runs only when a message can move.
func (m *Machine) Step() {
	if m.Naive {
		m.StepAll()
		return
	}
	now := m.Cycle
	stepped := m.steppedBuf[:0]
	for i, c := range m.Chips {
		if c.NextEvent(now) <= now {
			if m.probe != nil {
				m.probe(i, now)
			}
			c.Step(now)
			stepped = append(stepped, i)
		} else {
			c.SkipCycles(1)
		}
	}
	m.drainChipOutput(now)
	for _, i := range stepped {
		m.noteStepped(i)
	}
	m.steppedBuf = stepped
	netStepped := false
	if m.Net.NeedsStep(now) {
		m.Net.Step(now)
		netStepped = true
	}
	m.wakeArrivals(now, netStepped)
	m.Cycle++
}

// wakeArrivals wakes every chip that has delivered-but-unconsumed network
// messages: a delivery at cycle now is consumed by the destination's
// network input interface at now+1, and a node whose queues are still
// backed up must retry every cycle (the return-to-sender protocol depends
// on it). The tracked node list is maintained incrementally — last cycle's
// survivors plus this cycle's delivery targets — so the walk costs
// O(affected nodes) instead of O(nodes); WakeAll rebuilds it from scratch
// at Run/RunUntil entry.
func (m *Machine) wakeArrivals(now int64, netStepped bool) {
	keep := m.arrivalNodes[:0]
	for _, i := range m.arrivalNodes {
		if m.Net.HasArrivals(i) {
			keep = append(keep, i)
		} else {
			m.arrivalMark[i] = false
		}
	}
	if netStepped {
		for _, i := range m.Net.DeliveredNodes() {
			if !m.arrivalMark[i] {
				m.arrivalMark[i] = true
				keep = append(keep, i)
			}
		}
	}
	m.arrivalNodes = keep
	for _, i := range keep {
		m.Chips[i].WakeAt(now + 1)
	}
}

// drainChipOutput moves every chip's outbox messages into the network, in
// node-index order. A chip cannot observe another chip's same-cycle
// injections, so draining after the chip phase is bit-identical to an
// inject-during-step order — and it is the one injection path, shared
// with the distributed engine's shard workers.
func (m *Machine) drainChipOutput(now int64) {
	for _, c := range m.Chips {
		c.FlushNet(now)
	}
}

// NextEvent reports the earliest cycle >= now at which any component of the
// machine can change state without new external input, NoEvent if the
// machine is permanently idle (deadlocked or finished).
func (m *Machine) NextEvent(now int64) int64 {
	next := m.Net.NextEvent(now)
	for _, c := range m.Chips {
		if w := c.NextEvent(now); w < next {
			next = w
		}
	}
	return next
}

// UserDone reports whether every loaded user H-Thread has halted or
// faulted.
func (m *Machine) UserDone() bool {
	for i := range m.Chips {
		if runningUserOf(m.Chips[i]) > 0 {
			return false
		}
	}
	return true
}

// runningUserOf counts a chip's running user H-Threads.
func runningUserOf(c *chip.Chip) int {
	n := 0
	for vt := 0; vt < isa.NumUserSlots; vt++ {
		for cl := 0; cl < isa.NumClusters; cl++ {
			if c.Thread(vt, cl).Status == cluster.ThreadRunning {
				n++
			}
		}
	}
	return n
}

// noteStepped refreshes chip i's cached activity contributions after it
// stepped (its outbox must already be drained, so the quiescence check
// sees the cross-cycle state). Chips that skip a cycle cannot change any
// of the three quantities, so the loop head's totals stay exact while
// only stepped chips are visited.
func (m *Machine) noteStepped(i int) {
	c := m.Chips[i]
	if n := runningUserOf(c); n != m.chipRunning[i] {
		m.runningUser += n - m.chipRunning[i]
		m.chipRunning[i] = n
	}
	if b := !c.Quiescent(); b != m.chipBusy[i] {
		if b {
			m.busyChips++
		} else {
			m.busyChips--
		}
		m.chipBusy[i] = b
	}
	if v := c.InstsIssued; v != m.chipIssued[i] {
		m.issuedTotal += v - m.chipIssued[i]
		m.chipIssued[i] = v
	}
}

// recomputeActive rebuilds the run-loop activity counters from scratch —
// the O(nodes) pass Run and RunUntil pay once at entry (and Restore pays
// once at commit) so that state mutated from outside the simulation is
// observed; within a run noteStepped keeps them exact incrementally.
func (m *Machine) recomputeActive() {
	m.runningUser, m.busyChips, m.issuedTotal = 0, 0, 0
	for i, c := range m.Chips {
		m.chipRunning[i] = runningUserOf(c)
		m.runningUser += m.chipRunning[i]
		m.chipBusy[i] = !c.Quiescent()
		if m.chipBusy[i] {
			m.busyChips++
		}
		m.chipIssued[i] = c.InstsIssued
		m.issuedTotal += c.InstsIssued
	}
}

// QuietWindow is the number of consecutive idle cycles Run requires
// before declaring the machine done: user threads may halt while event
// handlers are still mid-record, so quiescence is confirmed by observing
// no instruction issue anywhere with all queues drained. Run's cycle
// bound is padded by this many detection cycles, so a caller that must
// stop the machine at an exact cycle (internal/guard's cycle budgets)
// subtracts it back out of the bound it passes.
const QuietWindow = 32

// Run steps, under the shared run loop (Loop.Run), until all user
// threads are done and the machine has been quiet for QuietWindow cycles,
// or maxCycles elapse. It returns the cycles executed (excluding the quiet
// window) and an error on timeout or if any user thread faulted.
func (m *Machine) Run(maxCycles int64) (int64, error) {
	return m.run(Loop{Max: maxCycles})
}

// RunExact advances exactly n cycles — no completion detection and no
// fast-forward, but still bit-identical to the engine loop and still
// stoppable — and returns the cycles executed. Cycle budgets use it for
// a remainder shorter than one quiet window (internal/guard).
func (m *Machine) RunExact(n int64) (int64, error) {
	return m.run(Loop{Max: n, Exact: true})
}

func (m *Machine) run(l Loop) (int64, error) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	m.WakeAll()
	m.recomputeActive()
	l.Start = m.Cycle
	n, err := l.Run((*engine)(m))
	m.cycleGauge.Store(m.Cycle)
	return n, err
}

// WakeAll forces every chip to re-derive its next event on its coming
// step. Run and RunUntil call it on entry so that any state mutated from
// outside the simulation between runs (program loads, register pokes) is
// observed; within a run the engine maintains wake cycles itself. It also
// rebuilds the tracked arrival set from scratch, so deliveries that
// happened outside the event engines (e.g. naive-engine cycles on the same
// machine) are re-observed.
func (m *Machine) WakeAll() {
	m.arrivalNodes = m.arrivalNodes[:0]
	for i, c := range m.Chips {
		if m.Net.HasArrivals(i) {
			m.arrivalMark[i] = true
			m.arrivalNodes = append(m.arrivalNodes, i)
		} else {
			m.arrivalMark[i] = false
		}
		c.Touch()
	}
}

// RunUntil steps until pred holds or maxCycles elapse. The event engine
// advances cycle-by-cycle here (components are still skipped when idle,
// but the clock is not fast-forwarded), so an arbitrary predicate — even
// one reading Machine.Cycle — observes exactly the per-cycle sequence the
// naive loop produces.
func (m *Machine) RunUntil(pred func() bool, maxCycles int64) (int64, error) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	m.WakeAll()
	m.recomputeActive()
	start := m.Cycle
	for m.Cycle-start < maxCycles {
		m.cycleGauge.Store(m.Cycle)
		if m.stopReq.Load() {
			return m.Cycle - start, fmt.Errorf("machine: run stopped at cycle %d: %w", m.Cycle, ErrStopped)
		}
		if pred() {
			return m.Cycle - start, nil
		}
		m.Step()
	}
	return m.Cycle - start, fmt.Errorf("machine: condition not met within %d cycles", maxCycles)
}

// FaultError collects user-thread fault diagnostics, nil if none.
func (m *Machine) FaultError() error {
	for i := range m.Chips {
		if msg := m.chipFault(i); msg != "" {
			return errors.New(msg)
		}
	}
	return nil
}

// chipFault describes node i's first faulted user thread, "" if none.
func (m *Machine) chipFault(i int) string {
	for vt := 0; vt < isa.NumUserSlots; vt++ {
		for cl := 0; cl < isa.NumClusters; cl++ {
			if th := m.Chips[i].Thread(vt, cl); th.Status == cluster.ThreadFaulted {
				return fmt.Sprintf("machine: node %d vthread %d cluster %d faulted: %s", i, vt, cl, th.FaultMsg)
			}
		}
	}
	return ""
}

// MapPageGroup installs a GDT entry distributing a virtual range across
// nodes (Figure 8).
func (m *Machine) MapPageGroup(e gtlb.Entry) error { return m.GDT.Add(e) }

// MapNodeRange maps npages GTLB pages starting at vaddr to a single node —
// the common "this range lives on node n" case.
func (m *Machine) MapNodeRange(vaddr uint64, npages uint64, node int) error {
	// Round npages up to a power of two, as the encoding requires.
	gp := uint64(1)
	for gp < npages {
		gp *= 2
	}
	c := m.Net.CoordOf(node)
	return m.GDT.Add(gtlb.Entry{
		VirtPage:     vaddr / gtlb.GTLBPageWords,
		GroupPages:   gp,
		Start:        gtlb.NodeID{X: c.X, Y: c.Y, Z: c.Z},
		ExtentLog:    [3]int{0, 0, 0},
		PagesPerNode: gp,
	})
}

// MapLocal creates a local (512-word) page mapping vpn on the given node,
// allocating a physical page, with all blocks in status s. If prime is
// true the LTLB is primed; otherwise only the LPT holds the entry and the
// first access takes an LTLB miss.
func (m *Machine) MapLocal(node int, vpn uint64, s mem.BlockStatus, prime bool) uint64 {
	ppn := m.nextPPN[node]
	m.nextPPN[node]++
	if prime {
		m.Chips[node].Mem.MapPage(vpn, ppn, s)
	} else {
		m.Chips[node].Mem.MapPageLPTOnly(vpn, ppn, s)
	}
	return ppn
}

// Poke writes a word at a node's virtual address (boot/test path).
func (m *Machine) Poke(node int, vaddr, w uint64) error {
	return m.Chips[node].Mem.PokeVirt(vaddr, w, false)
}

// Peek reads a word at a node's virtual address (boot/test path).
func (m *Machine) Peek(node int, vaddr uint64) (uint64, error) {
	w, _, err := m.Chips[node].Mem.PeekVirt(vaddr)
	return w, err
}

// SetTrace installs a trace callback on every chip; nil detaches it.
func (m *Machine) SetTrace(fn func(trace.Event)) {
	for _, c := range m.Chips {
		c.Trace = fn
	}
}
