package dist

// The determinism matrix: every scenario must produce bit-identical
// results — cycle counts, check outcomes, trace streams, and the sha256
// digest of the final machine snapshot — on the naive, event, and
// distributed engines, for every shard count, including distributed
// runs that lose and recover workers mid-flight.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

func loadScenario(t *testing.T, name string) *core.Scenario {
	t.Helper()
	sc, err := core.ScenarioFromFile(filepath.Join("..", "..", "testdata", "workloads", name))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// refRun executes a scenario on an in-process engine and fingerprints
// the outcome.
type refOutcome struct {
	res    *core.ScenarioResult
	digest string
	events []trace.Event
}

func refRun(t *testing.T, sc *core.Scenario, o core.Options) refOutcome {
	t.Helper()
	res, s, err := sc.RunSim(o)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	return refOutcome{res: res, digest: res.Digest, events: s.Recorder.Events}
}

func distRun(t *testing.T, sc *core.Scenario, cfg Config) (*RunResult, []trace.Event) {
	t.Helper()
	if cfg.Launcher == nil {
		cfg.Launcher = LocalLauncher{}
	}
	res, s, err := RunScenario(sc, core.Options{}, cfg)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	return res, s.Recorder.Events
}

func compareOutcome(t *testing.T, ref refOutcome, got *RunResult, events []trace.Event) {
	t.Helper()
	if got.TotalCycles != ref.res.TotalCycles {
		t.Errorf("total cycles %d, want %d", got.TotalCycles, ref.res.TotalCycles)
	}
	if got.Checks != ref.res.Checks {
		t.Errorf("checks %d, want %d", got.Checks, ref.res.Checks)
	}
	if len(got.Phases) != len(ref.res.Phases) {
		t.Fatalf("phases %v, want %v", got.Phases, ref.res.Phases)
	}
	for i := range got.Phases {
		if got.Phases[i] != ref.res.Phases[i] {
			t.Errorf("phase %d: %+v, want %+v", i, got.Phases[i], ref.res.Phases[i])
		}
	}
	if got.Digest != ref.digest {
		t.Errorf("machine digest %s, want %s", got.Digest, ref.digest)
	}
	if len(events) != len(ref.events) {
		t.Fatalf("%d trace events, want %d", len(events), len(ref.events))
	}
	for i := range events {
		if events[i] != ref.events[i] {
			t.Fatalf("trace event %d: %+v, want %+v", i, events[i], ref.events[i])
		}
	}
}

func TestDistDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in full mode only")
	}
	for _, name := range []string{"meshsmooth4.wl", "stencil7x2.wl", "redblack.wl"} {
		t.Run(name, func(t *testing.T) {
			sc := loadScenario(t, name)
			engines := map[string]core.Options{
				"naive": {NaiveEngine: true},
				"event": {},
			}
			refs := map[string]refOutcome{}
			for eng, o := range engines {
				refs[eng] = refRun(t, sc, o)
			}
			// All in-process engines must agree with each other first.
			for eng, ref := range refs {
				if ref.digest != refs["event"].digest {
					t.Fatalf("engine %s digest %s, event engine %s", eng, ref.digest, refs["event"].digest)
				}
			}
			for _, shards := range []int{2, 3} {
				got, events := distRun(t, sc, Config{Shards: shards, CheckpointEvery: 256})
				compareOutcome(t, refs["event"], got, events)
			}
		})
	}
}

func TestMain(m *testing.M) {
	MaybeWorker() // the test binary doubles as the process-worker executable
	os.Exit(m.Run())
}

// TestDistRecoverFromCrash injects a deterministic worker panic mid-run:
// the coordinator must classify it as a crash, rewind to the latest
// checkpoint, respawn, disarm the fired fault, and finish with results
// bit-identical to an undisturbed in-process run.
func TestDistRecoverFromCrash(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	ref := refRun(t, sc, core.Options{})
	got, events := distRun(t, sc, Config{
		Shards:          2,
		CheckpointEvery: 200,
		Chaos:           []ChaosSpec{{Node: 1, Cycle: 600, Kind: "panic"}, {Node: 3, Cycle: 2000, Kind: "panic"}},
	})
	compareOutcome(t, ref, got, events)
	if got.Recoveries < 2 {
		t.Errorf("recoveries = %d, want >= 2", got.Recoveries)
	}
	crashes := 0
	for _, f := range got.Failures {
		if f.Class == FailCrash {
			crashes++
		}
	}
	if crashes < 2 {
		t.Errorf("crash failures = %d (%+v), want >= 2", crashes, got.Failures)
	}
}

// TestDistRecoverFromStall wedges a worker mid-step while its heartbeats
// keep flowing: the window deadline must classify it as a stall (not
// lost), and recovery must still produce bit-identical results.
func TestDistRecoverFromStall(t *testing.T) {
	sc := loadScenario(t, "meshsmooth4.wl")
	ref := refRun(t, sc, core.Options{})
	got, events := distRun(t, sc, Config{
		Shards:          2,
		CheckpointEvery: 200,
		WindowTimeout:   400 * time.Millisecond,
		HeartbeatEvery:  50 * time.Millisecond,
		SilenceTimeout:  2 * time.Second,
		Chaos:           []ChaosSpec{{Node: 2, Cycle: 900, Kind: "hang"}},
	})
	compareOutcome(t, ref, got, events)
	stalls := 0
	for _, f := range got.Failures {
		if f.Class == FailStall {
			stalls++
		}
	}
	if stalls == 0 {
		t.Errorf("no stall-class failure recorded: %+v", got.Failures)
	}
}

// TestDistRecoverFromLostLocal severs a worker's pipe mid-run (the
// local stand-in for a SIGKILLed process): lost-connection class, then
// bit-identical recovery.
func TestDistRecoverFromLost(t *testing.T) {
	sc := loadScenario(t, "redblack.wl")
	ref := refRun(t, sc, core.Options{})
	got, events := distRun(t, sc, Config{
		Shards:          2,
		CheckpointEvery: 128,
		Kill:            []KillSpec{{Shard: 1, Cycle: 500}},
	})
	compareOutcome(t, ref, got, events)
	lost := 0
	for _, f := range got.Failures {
		if f.Class == FailLost {
			lost++
		}
	}
	if lost == 0 {
		t.Errorf("no lost-class failure recorded: %+v", got.Failures)
	}
}

// TestDistRecoveryLimit proves the coordinator gives up instead of
// flapping: a chain of faults longer than the recovery cap — each fired
// fault is disarmed, but the next one is waiting — must end in a
// terminal recovery-limit error, not an endless rewind loop.
func TestDistRecoveryLimit(t *testing.T) {
	sc := loadScenario(t, "stencil7x2.wl")
	_, _, err := RunScenario(sc, core.Options{}, Config{
		Shards:          1,
		Launcher:        LocalLauncher{},
		CheckpointEvery: -1, // entry checkpoint only
		MaxRecoveries:   2,
		Chaos: []ChaosSpec{
			{Node: 0, Cycle: 5, Kind: "panic"},
			{Node: 0, Cycle: 10, Kind: "panic"},
			{Node: 0, Cycle: 15, Kind: "panic"},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "recovery limit") {
		t.Fatalf("err = %v, want recovery-limit error", err)
	}
}
