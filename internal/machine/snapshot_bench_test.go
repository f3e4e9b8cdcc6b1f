package machine_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// machineRunner runs scenario phases straight on the machine.
type machineRunner struct{ m *machine.Machine }

func (r machineRunner) RunPhase(n int64) (int64, error) { return r.m.Run(n) }

// stagedSweepMachine runs the shared staging prefix of
// testdata/workloads/sweepexchange.wl, the state a sweep forks once per
// point.
func stagedSweepMachine(b testing.TB) *machine.Machine {
	sc, err := core.ScenarioFromFile("../../testdata/workloads/sweepexchange.wl")
	if err != nil {
		b.Fatal(err)
	}
	s, err := sc.NewSim(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	run := sc.NewRun(s)
	for !run.Done() {
		if _, err := run.Advance(machineRunner{s.M}, 0); err != nil {
			b.Fatal(err)
		}
	}
	return s.M
}

// TestSnapshotStagedSize bounds the snapshot of the staged sweep
// machine, the stream every sweep point's Fork writes and reads: SDRAM
// chunks go out as their non-zero blocks only, so the 4-node machine's
// few hundred touched words cost tens of KBytes, not 64 KBytes a chunk.
func TestSnapshotStagedSize(t *testing.T) {
	var buf bytes.Buffer
	if err := stagedSweepMachine(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if max := 96 << 10; buf.Len() >= max {
		t.Errorf("staged sweep snapshot is %d bytes, want under %d", buf.Len(), max)
	}
}

// TestSnapshotForkAllocBytes bounds the bytes one Fork of the staged
// sweep machine allocates. The clone is built from the decoded chips, so
// each node pays for one 2048-line cache array — the decoded one — and no
// cache is built by New only to be replaced.
func TestSnapshotForkAllocBytes(t *testing.T) {
	m := stagedSweepMachine(t)
	fork := func() {
		f, err := m.Fork()
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	fork() // warm the per-stream memo and the writer buffers' paths
	const forks = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < forks; i++ {
		fork()
	}
	runtime.ReadMemStats(&after)
	if per, max := (after.TotalAlloc-before.TotalAlloc)/forks, uint64(2500<<10); per >= max {
		t.Errorf("Fork allocates %d bytes, want under %d", per, max)
	}
}

// BenchmarkSnapshot measures the snapshot layer (DESIGN.md,
// "Checkpoint/restore") on a staged machine: Save to io.Discard, Digest
// (Save through sha256), Restore into a live machine, and Fork (Save
// plus a decode the clone is built from, what a sweep pays per point).
// Run with -benchmem.
func BenchmarkSnapshot(b *testing.B) {
	m := stagedSweepMachine(b)
	var stream bytes.Buffer
	if err := m.Save(&stream); err != nil {
		b.Fatal(err)
	}
	b.Run("Save", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(stream.Len()))
		for i := 0; i < b.N; i++ {
			if err := m.Save(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Digest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := machine.Digest(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Restore", func(b *testing.B) {
		target := machine.New(m.Cfg)
		b.ReportAllocs()
		b.SetBytes(int64(stream.Len()))
		for i := 0; i < b.N; i++ {
			if err := target.Restore(bytes.NewReader(stream.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fork", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := m.Fork()
			if err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
}
