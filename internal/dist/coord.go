package dist

// The coordinator: owner of the authoritative machine (the "hub") and
// the clock. It drives the shared run loop (machine.Loop) as a
// machine.Engine, so completion detection, the quiet window, and the
// idle fast-forward are machine.Run's own — but the chip phase of each
// cycle is farmed out to the shard workers, and the hub's chips never
// step. The hub network is the single source of truth for all
// traffic: worker outboxes are injected here in global node order (so
// sequence numbers match an in-process run exactly), deliveries are
// shipped to the owning shard as copies, and a shipped message is retired
// from the hub only when its shard confirms the chip consumed it — which
// keeps the hub's arrival queues equal to the real unconsumed set at
// every synchronization point, and therefore keeps Quiescent, NextEvent,
// and checkpoints exact.
//
// Supervision: every window the coordinator enforces a wall deadline and
// a heartbeat-silence bound on each shard, classifying failures as crash
// (the worker reported a contained panic), stall (alive but wedged), or
// lost (connection dead, process killed). Recovery rewinds the whole
// federation to the latest coordinated checkpoint — taken at run-loop
// heads, where the machine is exactly between cycles — respawns the
// workers, and replays; the replay is bit-identical to an undisturbed
// run because checkpoints capture the full hub state and the loop
// position (the clock and the machine.Loop).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/machine"
	"repro/internal/snap"
	"repro/internal/trace"
)

// FailureClass labels how a shard died, mirroring internal/serve's
// failure taxonomy across process boundaries.
type FailureClass string

const (
	FailCrash FailureClass = "crash" // worker reported a contained panic
	FailStall FailureClass = "stall" // alive (heartbeating) but missed the window deadline
	FailLost  FailureClass = "lost"  // connection died or went silent
)

// ShardFailure is a supervised shard fault: the coordinator's retry loop
// catches it, recovers from the latest checkpoint, and replays.
type ShardFailure struct {
	Shard int
	Class FailureClass
	Cycle int64
	Err   error
}

func (f *ShardFailure) Error() string {
	return fmt.Sprintf("dist: shard %d %s at cycle %d: %v", f.Shard, f.Class, f.Cycle, f.Err)
}

func (f *ShardFailure) Unwrap() error { return f.Err }

// KillSpec is a supervised fault drill: at the first stepped cycle at or
// after Cycle, the coordinator kills shard Shard's worker outright
// (SIGKILL for process workers), exercising the lost-connection path.
type KillSpec struct {
	Shard int
	Cycle int64
}

// FailureRecord is one observed shard failure, kept for reporting.
type FailureRecord struct {
	Shard  int
	Class  FailureClass
	Cycle  int64
	Detail string
}

// Config parameterizes a Coordinator.
type Config struct {
	// Shards is the worker count; clamped to [1, nodes].
	Shards int
	// Launcher starts shard workers (ProcLauncher for real processes,
	// LocalLauncher for in-process tests). Required.
	Launcher Launcher
	// CheckpointEvery is the coordinated checkpoint cadence in cycles
	// (default 4096; <0 disables mid-phase checkpoints).
	CheckpointEvery int64
	// CheckpointPath, when set, additionally spools each checkpoint to
	// this file via snap.WriteFileAtomic — an operator artifact for
	// inspecting what a recovery would rewind to.
	CheckpointPath string
	// WindowTimeout is the wall deadline for one shard exchange
	// (default 30s). A shard that heartbeats but cannot answer within
	// it is classified as stalled.
	WindowTimeout time.Duration
	// HeartbeatEvery is the worker beacon cadence (default 250ms).
	HeartbeatEvery time.Duration
	// SilenceTimeout bounds the gap between any two frames from a shard
	// (default 3s); silence beyond it is a lost shard.
	SilenceTimeout time.Duration
	// MaxRecoveries caps checkpoint recoveries per coordinator
	// (default 8); the cap trips a terminal error instead of flapping.
	MaxRecoveries int
	// Chaos arms deterministic worker-side faults (tests and drills).
	Chaos []ChaosSpec
	// Kill arms coordinator-side worker kills (tests and drills).
	Kill []KillSpec
	// Trace receives the merged chip trace stream, in the serial
	// engines' order. Nil drops it.
	Trace func(trace.Event)
}

func (cfg *Config) setDefaults() {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 4096
	}
	if cfg.WindowTimeout <= 0 {
		cfg.WindowTimeout = 30 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.SilenceTimeout <= 0 {
		cfg.SilenceTimeout = 3 * time.Second
	}
	if cfg.MaxRecoveries == 0 {
		cfg.MaxRecoveries = 8
	}
}

// checkpoint is a coordinated rewind point: the full hub state plus the
// run-loop position. A checkpoint taken from the loop's Head hook has
// loop.AtStep set, so a resume skips that head's checks.
type checkpoint struct {
	machine []byte
	cycle   int64
	loop    machine.Loop
}

// shardConn is the coordinator's view of one worker.
type shardConn struct {
	h         Handle
	shard     int
	lo, hi    int
	lastFrame time.Time
}

// Coordinator drives a sharded federation with a Machine's run surface —
// Run and RunExact — so guard.Budget clamps it, and core.ScenarioRun
// drives it, exactly like the in-process machine.
type Coordinator struct {
	cfg    Config
	m      *machine.Machine // the hub
	shards []*shardConn
	owner  []int // node -> shard index

	// Run-loop state: the clock, the loop position, and each shard's
	// latest activity report.
	cycle int64
	loop  machine.Loop
	acts  []activity

	// Arrival mirroring: per (node, pri), how many of the hub's pending
	// arrivals have been shipped to the owning shard; pend lists nodes
	// with hub arrivals.
	shipped  [][2]int
	pendMark []bool
	pend     []int

	ck           checkpoint
	ckCount      int
	pendingTrace []trace.Event

	recoveries int
	failures   []FailureRecord
	chaos      []ChaosSpec
	kill       []KillSpec
}

// New launches cfg.Shards workers for hub machine m and performs the
// init handshake with each. The hub's chips never step again; all
// simulation happens in the workers, reassembled into the hub at phase
// boundaries and checkpoints.
func New(m *machine.Machine, cfg Config) (*Coordinator, error) {
	cfg.setDefaults()
	if cfg.Launcher == nil {
		return nil, errors.New("dist: Config.Launcher is required")
	}
	nodes := m.NumNodes()
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > nodes {
		cfg.Shards = nodes
	}
	co := &Coordinator{
		cfg:      cfg,
		m:        m,
		shards:   make([]*shardConn, cfg.Shards),
		owner:    make([]int, nodes),
		acts:     make([]activity, cfg.Shards),
		shipped:  make([][2]int, nodes),
		pendMark: make([]bool, nodes),
		chaos:    append([]ChaosSpec(nil), cfg.Chaos...),
		kill:     append([]KillSpec(nil), cfg.Kill...),
	}
	// Contiguous partition: nodes/shards each, the first nodes%shards
	// ranges one wider.
	base, rem := nodes/cfg.Shards, nodes%cfg.Shards
	lo := 0
	for i := 0; i < cfg.Shards; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		co.shards[i] = &shardConn{shard: i, lo: lo, hi: hi}
		for n := lo; n < hi; n++ {
			co.owner[n] = i
		}
		lo = hi
	}
	for i := range co.shards {
		if err := co.spawn(i); err != nil {
			co.Close()
			return nil, err
		}
	}
	return co, nil
}

// Shards reports the worker count; Failures and Recoveries report the
// supervision history; Checkpoints counts coordinated checkpoints taken.
func (co *Coordinator) Shards() int               { return len(co.shards) }
func (co *Coordinator) Failures() []FailureRecord { return co.failures }
func (co *Coordinator) Recoveries() int           { return co.recoveries }
func (co *Coordinator) Checkpoints() int          { return co.ckCount }

// Close shuts the federation down: orderly cmdShutdown where possible,
// then handle teardown. Safe on a partially constructed coordinator.
func (co *Coordinator) Close() {
	for _, sc := range co.shards {
		if sc == nil || sc.h == nil {
			continue
		}
		if writeFrameDeadline(sc.h, cmdShutdown, nil, time.Second) == nil {
			sc.h.SetReadDeadline(time.Now().Add(time.Second))
			for {
				kind, _, err := readFrame(sc.h)
				if err != nil || kind == repOK {
					break
				}
			}
		}
		sc.h.Close()
	}
}

// spawn starts (or restarts) shard i's worker and runs the handshake.
func (co *Coordinator) spawn(i int) error {
	sc := co.shards[i]
	if sc.h != nil {
		sc.h.Kill()
		sc.h.Close()
		sc.h = nil
	}
	h, err := co.cfg.Launcher.Start(i)
	if err != nil {
		return fmt.Errorf("dist: start shard %d: %w", i, err)
	}
	sc.h = h
	sc.lastFrame = time.Now()
	kind, payload, ferr := co.read(sc)
	if ferr != nil {
		return fmt.Errorf("dist: shard %d hello: %v", i, ferr)
	}
	if kind != repHello {
		return fmt.Errorf("dist: shard %d: first frame %#x, want hello", i, kind)
	}
	v, err := decodeI64(payload)
	if err != nil || v != protoVersion {
		return fmt.Errorf("dist: shard %d speaks protocol %d, coordinator %d", i, v, protoVersion)
	}
	// Only the chaos armed for this shard's nodes ships in the init.
	var chaos []ChaosSpec
	for _, c := range co.chaos {
		if c.Node >= sc.lo && c.Node < sc.hi {
			chaos = append(chaos, c)
		}
	}
	spec := initSpec{
		Shard: i, Lo: sc.lo, Hi: sc.hi,
		HeartbeatMillis: co.cfg.HeartbeatEvery.Milliseconds(),
		Chaos:           chaos,
	}
	if _, err := co.callExpect(sc, cmdInit, encodeInit(&spec), repOK); err != nil {
		return fmt.Errorf("dist: shard %d init: %v", i, err)
	}
	return nil
}

// write sends one command to a shard under the window deadline.
func (co *Coordinator) write(sc *shardConn, kind byte, payload []byte) *ShardFailure {
	if err := writeFrameDeadline(sc.h, kind, payload, co.cfg.WindowTimeout); err != nil {
		return co.fail(sc, FailLost, fmt.Errorf("write: %w", err))
	}
	return nil
}

// read waits for a shard's next non-heartbeat frame under the window
// deadline and the heartbeat-silence bound, classifying every way the
// wait can end badly.
func (co *Coordinator) read(sc *shardConn) (byte, []byte, *ShardFailure) {
	windowEnd := time.Now().Add(co.cfg.WindowTimeout)
	for {
		deadline := windowEnd
		if sil := sc.lastFrame.Add(co.cfg.SilenceTimeout); sil.Before(deadline) {
			deadline = sil
		}
		sc.h.SetReadDeadline(deadline)
		kind, payload, err := readFrame(sc.h)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				if time.Now().Before(windowEnd) || time.Since(sc.lastFrame) > co.cfg.SilenceTimeout {
					return 0, nil, co.fail(sc, FailLost,
						fmt.Errorf("no frame for %v (heartbeat silence)", time.Since(sc.lastFrame).Round(time.Millisecond)))
				}
				return 0, nil, co.fail(sc, FailStall,
					fmt.Errorf("alive but no reply within the %v window", co.cfg.WindowTimeout))
			}
			return 0, nil, co.fail(sc, FailLost, err)
		}
		sc.lastFrame = time.Now()
		switch kind {
		case repHeartbeat:
			continue
		case repErr:
			msg, _ := decodeString(payload)
			return 0, nil, co.fail(sc, FailCrash, errors.New(msg))
		default:
			return kind, payload, nil
		}
	}
}

func (co *Coordinator) fail(sc *shardConn, class FailureClass, err error) *ShardFailure {
	return &ShardFailure{Shard: sc.shard, Class: class, Cycle: co.cycle, Err: err}
}

// callExpect is a write + read that demands a specific reply kind.
func (co *Coordinator) callExpect(sc *shardConn, kind byte, payload []byte, want byte) ([]byte, *ShardFailure) {
	if f := co.write(sc, kind, payload); f != nil {
		return nil, f
	}
	got, reply, f := co.read(sc)
	if f != nil {
		return nil, f
	}
	if got != want {
		return nil, co.fail(sc, FailCrash, fmt.Errorf("reply %#x, want %#x", got, want))
	}
	return reply, nil
}

// Run runs one machine.Run leg across the federation, recovering from
// shard failures via checkpoint rewind until the leg completes or the
// recovery cap trips. Semantics match Machine.Run: the cycles executed
// (excluding the quiet window) and an error on cycle-limit expiry or
// user faults.
func (co *Coordinator) Run(maxCycles int64) (int64, error) {
	return co.run(machine.Loop{Max: maxCycles})
}

// RunExact advances the federation exactly n cycles, as Machine.RunExact.
func (co *Coordinator) RunExact(n int64) (int64, error) {
	return co.run(machine.Loop{Max: n, Exact: true})
}

func (co *Coordinator) run(l machine.Loop) (int64, error) {
	l.Start = co.m.Cycle
	co.cycle, co.loop = co.m.Cycle, l
	co.ck = checkpoint{}
	co.pendingTrace = co.pendingTrace[:0]
	for {
		n, err := co.attempt()
		var sf *ShardFailure
		if !errors.As(err, &sf) {
			return n, err
		}
		if err := co.recover(sf); err != nil {
			return 0, err
		}
	}
}

// attempt is one try at the leg: seed the workers from the hub (and take
// the entry checkpoint on a fresh leg), run the loop from co.loop, and
// reassemble the hub. A *ShardFailure return means "recover and call me
// again".
func (co *Coordinator) attempt() (int64, error) {
	if err := co.seedAll(); err != nil {
		return 0, err
	}
	if co.ck.machine == nil {
		if err := co.takeCheckpoint(); err != nil {
			return 0, err
		}
	}
	if f := co.beginRun(); f != nil {
		return 0, f
	}
	n, err := co.loop.Run((*federation)(co))
	var sf *ShardFailure
	if errors.As(err, &sf) {
		return n, err
	}
	// Whatever the leg's outcome, leave the hub authoritative and flush
	// the trace tail.
	if f := co.syncHub(); f != nil {
		return n, f
	}
	co.commitTrace()
	return n, err
}

// seedAll ships the hub snapshot to every worker and rebuilds the
// arrival mirror. Seed failures respawn the one affected worker and
// retry in place — the hub was not touched, so there is nothing to
// rewind; exhaustion is terminal (deliberately not a *ShardFailure).
func (co *Coordinator) seedAll() error {
	var buf bytes.Buffer
	if err := co.m.Save(&buf); err != nil {
		return fmt.Errorf("dist: snapshot hub: %w", err)
	}
	snapshot := buf.Bytes()
	for i := range co.shards {
		for {
			_, f := co.callExpect(co.shards[i], cmdSeed, snapshot, repOK)
			if f == nil {
				break
			}
			co.noteFailure(f)
			if co.recoveries >= co.cfg.MaxRecoveries {
				return fmt.Errorf("dist: recovery limit %d exhausted seeding: %v", co.cfg.MaxRecoveries, f)
			}
			co.recoveries++
			if err := co.spawn(i); err != nil {
				return err
			}
		}
	}
	co.pend = co.pend[:0]
	for n := range co.pendMark {
		co.pendMark[n] = false
		co.shipped[n] = [2]int{}
		if co.m.Net.HasArrivals(n) {
			co.pendMark[n] = true
			co.pend = append(co.pend, n)
		}
	}
	return nil
}

// beginRun is the run-loop entry across the federation: every worker
// wakes its chips (machine.Run's WakeAll) and reports activity, from
// which the loop's issue baseline is taken.
func (co *Coordinator) beginRun() *ShardFailure {
	for i, sc := range co.shards {
		payload, f := co.callExpect(sc, cmdBeginRun, nil, repActivity)
		if f != nil {
			return f
		}
		a, err := decodeActivityFrame(payload)
		if err != nil {
			return co.fail(sc, FailCrash, err)
		}
		co.acts[i] = a
	}
	return nil
}

// federation is the Coordinator as a machine.Engine: the shared run loop
// steps it through the lockstep exchange with the shard workers.
type federation Coordinator

func (e *federation) Now() int64 { return e.cycle }

// Activity sums the shards' latest reports; the hub network is the
// network.
func (e *federation) Activity() machine.Activity {
	a := machine.Activity{NetQuiet: e.m.Net.Quiescent()}
	for i := range e.acts {
		a.Running += e.acts[i].Running
		a.Busy += e.acts[i].Busy
		a.Issued += e.acts[i].Issued
	}
	return a
}

// Head takes the periodic coordinated checkpoint.
func (e *federation) Head() error {
	co := (*Coordinator)(e)
	if co.cfg.CheckpointEvery > 0 && co.cycle-co.ck.cycle >= co.cfg.CheckpointEvery {
		return co.takeCheckpoint()
	}
	return nil
}

func (e *federation) NextEvent() int64 {
	next := e.m.Net.NextEvent(e.cycle)
	for i := range e.acts {
		next = min(next, e.acts[i].Next)
	}
	return next
}

// Skip only moves the clock: workers materialize the skipped window
// lazily (cmdSkip) before their next step or pull.
func (e *federation) Skip(d int64) { e.cycle += d }

// FaultError mirrors Machine.FaultError: the first fault in node-scan
// order (shard order is node order), nil if none.
func (e *federation) FaultError() error {
	for i := range e.acts {
		if e.acts[i].Fault != "" {
			return errors.New(e.acts[i].Fault)
		}
	}
	return nil
}

// Step advances the federation through machine cycle t = Now: fire due
// kill drills, ship unshipped hub arrivals to their owners, step every
// shard, then reassemble — inject outboxes in global node order, retire
// confirmed consumptions, buffer traces, and step the hub network.
func (e *federation) Step() error {
	co, t := (*Coordinator)(e), e.cycle
	co.kill = slices.DeleteFunc(co.kill, func(k KillSpec) bool {
		due := k.Cycle <= t && k.Shard >= 0 && k.Shard < len(co.shards)
		if due {
			co.shards[k.Shard].h.Kill()
		}
		return due
	})

	// Drop drained nodes from the arrival mirror, then ship what the hub
	// holds beyond each owner's shipped watermark.
	keep := co.pend[:0]
	for _, n := range co.pend {
		if co.m.Net.HasArrivals(n) {
			keep = append(keep, n)
		} else {
			co.pendMark[n] = false
			co.shipped[n] = [2]int{}
		}
	}
	co.pend = keep
	cmds := make([]stepCmd, len(co.shards))
	for i := range cmds {
		cmds[i].Cycle = t
	}
	for _, n := range co.pend {
		cmd := &cmds[co.owner[n]]
		for pri := 0; pri < 2; pri++ {
			q := co.m.Net.ArrivalsAt(n, pri)
			for _, msg := range q[co.shipped[n][pri]:] {
				cmd.Deliveries = append(cmd.Deliveries, delivery{Node: n, Pri: pri, Msg: msg})
			}
			co.shipped[n][pri] = len(q)
		}
	}

	// Lockstep exchange: write every command, then read every reply, in
	// shard order.
	for i, sc := range co.shards {
		if f := co.write(sc, cmdStep, encodeStep(co.m.Net, &cmds[i])); f != nil {
			return f
		}
	}
	reps := make([]*stepReply, len(co.shards))
	for i, sc := range co.shards {
		kind, payload, f := co.read(sc)
		if f != nil {
			return f
		}
		if kind != repStep {
			return co.fail(sc, FailCrash, fmt.Errorf("step reply %#x", kind))
		}
		rep, err := decodeStepReply(co.m.Net, payload)
		if err != nil {
			return co.fail(sc, FailCrash, err)
		}
		reps[i] = rep
	}

	// Reassembly in shard order — which is global node order, so the
	// hub assigns the same message sequence numbers as an in-process
	// drain phase.
	for i, sc := range co.shards {
		rep := reps[i]
		for _, msg := range rep.Msgs {
			co.m.Net.Inject(t, msg)
		}
		for _, c := range rep.Consumed {
			if c.Node < sc.lo || c.Node >= sc.hi || c.Pri < 0 || c.Pri > 1 ||
				c.N <= 0 || c.N > co.shipped[c.Node][c.Pri] {
				return co.fail(sc, FailCrash,
					fmt.Errorf("bogus consumption: node %d pri %d n %d", c.Node, c.Pri, c.N))
			}
			co.m.Net.DropArrivals(c.Node, c.Pri, c.N)
			co.shipped[c.Node][c.Pri] -= c.N
		}
		co.pendingTrace = append(co.pendingTrace, rep.Trace...)
		co.acts[i] = rep.Act
	}
	if co.m.Net.NeedsStep(t) {
		co.m.Net.Step(t)
		for _, n := range co.m.Net.DeliveredNodes() {
			if !co.pendMark[n] {
				co.pendMark[n] = true
				co.pend = append(co.pend, n)
			}
		}
	}
	co.cycle = t + 1
	return nil
}

// takeCheckpoint records a coordinated rewind point at the current loop
// position. Loop-head checkpoints (loop.AtStep) must first pull the
// workers' chip state back into the hub; the entry checkpoint needs no
// pull because the hub had just seeded the workers.
func (co *Coordinator) takeCheckpoint() error {
	if co.loop.AtStep {
		if f := co.syncHub(); f != nil {
			return f
		}
	}
	var buf bytes.Buffer
	if err := co.m.Save(&buf); err != nil {
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	co.ck = checkpoint{machine: buf.Bytes(), cycle: co.cycle, loop: co.loop}
	co.ckCount++
	co.commitTrace()
	if co.cfg.CheckpointPath != "" {
		if err := co.spool(); err != nil {
			return err
		}
	}
	return nil
}

// spool writes the current checkpoint to CheckpointPath atomically.
func (co *Coordinator) spool() error {
	return snap.WriteFileAtomic(co.cfg.CheckpointPath, func(w io.Writer) error {
		sw := snap.NewWriter(w)
		sw.U64(distCkptMagic)
		sw.Int(1)
		sw.I64(co.ck.cycle)
		sw.I64(co.ck.loop.Idle)
		sw.Bool(co.ck.loop.AtStep)
		sw.Bytes(co.ck.machine)
		return sw.Err()
	})
}

// distCkptMagic brands spooled coordinator checkpoints ("mdistck1").
const distCkptMagic = 0x316b63747369646d

// commitTrace flushes the buffered window of trace events to the sink.
// Events buffer between checkpoints so a rewind can discard exactly the
// events of the replayed window — each is delivered exactly once.
func (co *Coordinator) commitTrace() {
	if co.cfg.Trace != nil {
		for _, ev := range co.pendingTrace {
			co.cfg.Trace(ev)
		}
	}
	co.pendingTrace = co.pendingTrace[:0]
}

// syncHub reassembles the full machine in the hub: every worker
// materializes deferred skips up to the coordinator clock and ships its
// chip range, which the hub adopts in place.
func (co *Coordinator) syncHub() *ShardFailure {
	for _, sc := range co.shards {
		if _, f := co.callExpect(sc, cmdSkip, encodeI64(co.cycle), repOK); f != nil {
			return f
		}
	}
	for _, sc := range co.shards {
		payload, f := co.callExpect(sc, cmdPull, nil, repFrame)
		if f != nil {
			return f
		}
		cyc, err := co.m.AdoptShard(bytes.NewReader(payload), sc.lo, sc.hi)
		if err != nil {
			return co.fail(sc, FailCrash, err)
		}
		if cyc != co.cycle {
			return co.fail(sc, FailCrash, fmt.Errorf("frame at cycle %d, coordinator at %d", cyc, co.cycle))
		}
	}
	co.m.Cycle = co.cycle
	return nil
}

func (co *Coordinator) noteFailure(f *ShardFailure) {
	co.failures = append(co.failures, FailureRecord{
		Shard: f.Shard, Class: f.Class, Cycle: f.Cycle, Detail: f.Err.Error(),
	})
}

// recover rewinds the federation to the latest checkpoint after a shard
// failure: every worker is respawned (survivors may hold half-exchanged
// protocol state), the hub restores the checkpointed machine, the
// buffered trace window is discarded, and fired fault drills are
// disarmed so the replay runs clean. The caller then re-attempts the leg,
// which reseeds the workers from the restored hub and resumes the loop at
// the checkpointed position.
func (co *Coordinator) recover(sf *ShardFailure) error {
	co.noteFailure(sf)
	if co.recoveries >= co.cfg.MaxRecoveries {
		return fmt.Errorf("dist: recovery limit %d exhausted: %v", co.cfg.MaxRecoveries, sf)
	}
	co.recoveries++
	if co.ck.machine == nil {
		return fmt.Errorf("dist: no checkpoint to recover from: %v", sf)
	}
	co.chaos = slices.DeleteFunc(co.chaos, func(c ChaosSpec) bool { return c.Cycle <= co.cycle })
	co.kill = slices.DeleteFunc(co.kill, func(k KillSpec) bool { return k.Cycle <= co.cycle })
	for i := range co.shards {
		if err := co.spawn(i); err != nil {
			return err
		}
	}
	if err := co.m.Restore(bytes.NewReader(co.ck.machine)); err != nil {
		return fmt.Errorf("dist: restore checkpoint: %w", err)
	}
	co.cycle, co.loop = co.ck.cycle, co.ck.loop
	co.pendingTrace = co.pendingTrace[:0]
	return nil
}
