package main

import (
	"testing"
	"time"

	"repro/internal/core"
)

// Seeds the README names: the default, and the one held out for
// checking a claimed gain.
var namedSeeds = []uint64{1, 7}

func TestPoolsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := genPool(w, 1), genPool(w, 1)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: pool sizes %d and %d", w, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: pool entry %d differs between two generations of seed 1", w, i)
			}
		}
		if c := genPool(w, 2); c[0].Src == a[0].Src {
			t.Errorf("%s: seeds 1 and 2 generate the same first scenario", w)
		}
	}
}

// Every generated scenario passes its own expect/check directives under
// the naive reference engine.
func TestPoolsPassNaive(t *testing.T) {
	for _, seed := range namedSeeds {
		for _, w := range workloads {
			pool := genPool(w, seed)
			n := len(pool)
			if testing.Short() {
				n = 1
			}
			for _, g := range pool[:n] {
				sc, err := compile(g)
				if err != nil {
					t.Fatalf("%s: %v", g.Name, err)
				}
				res, err := sc.Run(core.Options{NaiveEngine: true})
				if err != nil {
					t.Fatalf("%s: %v", g.Name, err)
				}
				if res.Checks == 0 {
					t.Errorf("%s: no expectations checked", g.Name)
				}
			}
		}
	}
}

// drive, the traced path, reproduces Scenario.Run, sweeps included.
func TestDriveMatchesRun(t *testing.T) {
	for _, w := range []string{"compute", "remote", "service"} {
		sc, err := compile(genPool(w, 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := sc.Run(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, ctr, err := drive(sc, rootScope(tr, 0, 0).begin("job"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(want) {
			t.Errorf("%s: drive fingerprint %s, Scenario.Run %s", w, fingerprint(got), fingerprint(want))
		}
		if ctr[cOps] == 0 || ctr[cCycles] == 0 {
			t.Errorf("%s: empty counters %v", w, ctr)
		}
		if tr.layers()["machine.advance"] == nil {
			t.Errorf("%s: no machine.advance spans", w)
		}
	}
}

// The dist workload's standalone scenarios are remote's sweep points.
func TestDistInputsMatchRemote(t *testing.T) {
	sc, err := compile(genPool("remote", 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := sc.Run(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range genPool("dist", 1)[:len(remotePoints)] {
		psc, err := compile(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := psc.Run(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != sweep.Points[i].Digest {
			t.Errorf("%s: digest differs from sweep point %s", g.Name, sweep.Points[i].Name)
		}
	}
}

// A session's digest equals the sliced in-process reference.
func TestServiceMatchesReference(t *testing.T) {
	svc, err := startService(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	g := genPool("service", 1)[0]
	info, err := svc.job(g, scope{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := compile(g)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := drive(sc, scope{}, serveSlice)
	if err != nil {
		t.Fatal(err)
	}
	got := svcFingerprint(info.Digest, info.TotalCycles, info.Checks)
	if want := svcFingerprint(res.Digest, res.TotalCycles, res.Checks); got != want {
		t.Errorf("session %s, reference %s", got, want)
	}
}

// A short untraced and traced section of every workload verifies clean
// and yields every per-layer metric.
func TestHarness(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			b, err := setupBench(w, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			plain := b.timed(300*time.Millisecond, nil, 0)
			tr := newTracer()
			traced := b.timed(300*time.Millisecond, tr, len(plain.jobs))
			pr, err := b.probe(tr)
			if err != nil {
				t.Fatal(err)
			}
			b.close()
			refs := b.references(tr)
			if n := check(plain, refs, t.Logf) + check(traced, refs, t.Logf); n != 0 {
				t.Fatalf("%d failed jobs", n)
			}
			m, _ := b.perLayer(plain, traced, refs, tr, pr)
			for _, name := range []string{"machine.run_ms", "core.boot_ms", "snap.fork_ms", "serve.submit_ms", "dist.run_ms", "chip.ops"} {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v", name, m[name].Value)
				}
			}
		})
	}
}

func TestWindowRate(t *testing.T) {
	// One client, 100 ms jobs back to back for 2 s, except that job 5
	// stalls for 300 ms: 10 jobs/s in every window it does not touch.
	var sec section
	at := time.Duration(0)
	for i := 0; i < 18; i++ {
		lat := 100 * time.Millisecond
		if i == 5 {
			lat = 300 * time.Millisecond
		}
		sec.jobs = append(sec.jobs, jobRec{start: at, lat: lat})
		at += lat
	}
	sec.elapsed = at
	if got := windowRate(sec, func(jobRec) float64 { return 1 }); got < 9.999 || got > 10.001 {
		t.Errorf("windowRate = %v jobs/s, want 10", got)
	}
	if got := windowRate(sec, func(j jobRec) float64 { return float64(j.start % 2) }); got != 0 {
		t.Errorf("zero weights gave %v", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		percentile float64
		beyond     int
	}{{5, 50, 2}, {20, 50, 10}, {40, 75, 10}, {99, 75, 24}, {100, 90, 10}, {999, 90, 99}, {1000, 99, 10}} {
		jobs := make([]jobRec, c.n)
		for i := range jobs {
			jobs[i].lat = time.Duration(i+1) * time.Millisecond
		}
		_, tail, ti := latencies(jobs)
		if ti.Percentile != c.percentile || ti.Beyond != c.beyond || ti.Samples != c.n {
			t.Errorf("n=%d: got %+v, want p%v with %d beyond", c.n, ti, c.percentile, c.beyond)
		}
		if want := float64(c.n - ti.Beyond); tail != want {
			t.Errorf("n=%d: tail %v ms, want %v", c.n, tail, want)
		}
	}
}
