package main

// Layer probes of the traced run. Every per-layer metric is measured on
// every workload: a layer the workload's own jobs do not reach is timed
// on the workload's probe scenario, its first non-sweep input. The
// snapshot codec is always timed on the probe scenario's staged machine
// (after its first run phase), where the workload's jobs would fork or
// checkpoint it.

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/guard"
)

const (
	probeJob  = 2 << 20 // job id base of probe spans
	snapReps  = 10
	layerReps = 3
)

type probeOut struct {
	snapBytes    int
	distRun      []time.Duration // distributed runs ...
	distInproc   []time.Duration // ... and in-process runs of the same scenarios
	distCkpt     int
	distRecov    int
	serveRetries uint64
	serveShed    uint64
	statsReads   int
	statsLag     int
}

// probeScenario is the workload's first non-sweep input.
func (b *bench) probeScenario() (genSource, *core.Scenario, error) {
	g := b.pool[0]
	if b.scs[0].Plan.Sweep != nil {
		g = remoteSource(b.seed, 0, remotePoints[0])
	}
	sc, err := compile(g)
	return g, sc, err
}

func (b *bench) probe(tr *tracer) (probeOut, error) {
	var out probeOut
	g, sc, err := b.probeScenario()
	if err != nil {
		return out, err
	}
	if out.snapBytes, err = probeSnap(sc, rootScope(tr, probeJob, 0).begin("probe")); err != nil {
		return out, fmt.Errorf("snapshot probe: %w", err)
	}
	if b.workload != "dist" {
		for k := 0; k < layerReps; k++ {
			sp := rootScope(tr, probeJob+1+k, 0).begin("probe")
			d := sp.begin("dist.run")
			t0 := time.Now()
			rr, _, err := dist.RunScenario(sc, core.Options{}, distConfig())
			out.distRun = append(out.distRun, time.Since(t0))
			d.end()
			sp.end()
			if err != nil {
				return out, fmt.Errorf("dist probe: %w", err)
			}
			out.distCkpt, out.distRecov = rr.Checkpoints, rr.Recoveries
			t0 = time.Now()
			res, _, err := drive(sc, scope{}, 0)
			out.distInproc = append(out.distInproc, time.Since(t0))
			if err != nil {
				return out, fmt.Errorf("dist probe reference: %w", err)
			}
			if rr.Digest != res.Digest {
				return out, fmt.Errorf("dist probe: digest %s, in-process %s", rr.Digest, res.Digest)
			}
		}
	}
	// The service workload reads its own server's counters; the others
	// run probe sessions on a server of their own.
	svc := b.svc
	if svc == nil {
		if svc, err = startService(b.dir, 1); err != nil {
			return out, err
		}
		defer svc.close()
		want, _, err := drive(sc, scope{}, serveSlice)
		if err != nil {
			return out, fmt.Errorf("serve probe reference: %w", err)
		}
		for k := 0; k < layerReps; k++ {
			sp := rootScope(tr, probeJob+1+layerReps+k, 0).begin("probe")
			info, err := svc.job(g, sp)
			sp.end()
			if err != nil {
				return out, fmt.Errorf("serve probe: %w", err)
			}
			if info.Digest != want.Digest {
				return out, fmt.Errorf("serve probe: digest %s, in-process %s", info.Digest, want.Digest)
			}
			lagged, err := svc.statsLag()
			if err != nil {
				return out, err
			}
			out.statsReads++
			if lagged {
				out.statsLag++
			}
		}
	}
	st, err := svc.stats()
	if err != nil {
		return out, err
	}
	out.serveRetries, out.serveShed = st.Retries, st.Shed
	return out, nil
}

// probeSnap stages sc up to the end of its first run phase, then times
// Save, Restore into a freshly booted machine, and Fork, and returns the
// snapshot size.
func probeSnap(sc *core.Scenario, sp scope) (int, error) {
	defer sp.end()
	s, err := sc.NewSim(core.Options{})
	if err != nil {
		return 0, err
	}
	defer s.M.Close()
	run := sc.NewRun(s)
	sup := guard.New(s.M, guard.Options{})
	err = sup.Do(func() error {
		for !run.Done() {
			ran, err := run.Advance(sup, 0)
			if err != nil || ran {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var snap []byte
	for k := 0; k < snapReps; k++ {
		var buf bytes.Buffer
		q := sp.begin("snap.save")
		err := s.Save(&buf)
		q.end()
		if err != nil {
			return 0, err
		}
		snap = buf.Bytes()

		fresh, err := sc.NewSim(core.Options{})
		if err != nil {
			return 0, err
		}
		q = sp.begin("snap.restore")
		err = fresh.Restore(bytes.NewReader(snap))
		q.end()
		fresh.M.Close()
		if err != nil {
			return 0, err
		}

		q = sp.begin("snap.fork")
		f, err := s.Fork()
		q.end()
		if err != nil {
			return 0, err
		}
		f.M.Close()
	}
	return len(snap), nil
}
