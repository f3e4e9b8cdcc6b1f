package machine_test

import (
	"bytes"
	"io"
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
func stagedSweepMachine(b *testing.B) *machine.Machine {
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

// BenchmarkSnapshot measures the snapshot layer (DESIGN.md,
// "Checkpoint/restore") on a staged machine: Save to io.Discard, Digest
// (Save through sha256), Restore into a live machine, and Fork (Save +
// New + Restore, what a sweep pays per point). Run with -benchmem.
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
