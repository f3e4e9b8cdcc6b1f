package main

// One workload's harness: set-up (generate, compile, boot, warm up),
// the closed-loop timed section, and the untimed verification against
// in-process reference runs.

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

// serveSlice is the session service's default run-slice size
// (serve.Config.CheckpointEvery); the in-process reference for a
// service job runs with the same slicing so the digests compare.
const serveSlice = 4096

// bench is one workload's set-up state.
type bench struct {
	workload string
	seed     uint64
	pool     []genSource
	scs      []*core.Scenario
	svc      *service // service workload only
	dir      string   // scratch directory inside the checkout

	mu       sync.Mutex
	distRuns map[int]*dist.RunResult // first distributed result per pool entry
	jobSrc   map[int]int             // traced job id -> pool entry, for in-process jobs
}

// clients is the closed loop's client count: two for the service (one
// per server worker), one elsewhere.
func (b *bench) clients() int {
	if b.workload == "service" {
		return 2
	}
	return 1
}

func setupBench(workload string, seed uint64, dir string) (*bench, error) {
	b := &bench{workload: workload, seed: seed, pool: genPool(workload, seed), dir: dir,
		distRuns: map[int]*dist.RunResult{}, jobSrc: map[int]int{}}
	for _, g := range b.pool {
		sc, err := compile(g)
		if err != nil {
			return nil, fmt.Errorf("compiling generated scenario: %w", err)
		}
		b.scs = append(b.scs, sc)
	}
	if workload == "service" {
		var err error
		if b.svc, err = startService(dir, 2); err != nil {
			return nil, err
		}
	}
	if _, err := b.runJob(0, scope{}); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return b, nil
}

func compile(g genSource) (*core.Scenario, error) { return core.ScenarioFromDSL(g.Name, g.Src) }

func (b *bench) close() {
	if b.svc != nil {
		b.svc.close()
		b.svc = nil
	}
}

func distConfig() dist.Config {
	return dist.Config{Shards: 2, Launcher: dist.LocalLauncher{}}
}

// svcFingerprint is what a service session reports of its simulation.
func svcFingerprint(digest string, cycles int64, checks int) string {
	return fmt.Sprintf("%.16s/%d/%d", digest, cycles, checks)
}

// runJob runs pool entry i once through the workload's entry point and
// returns the fingerprint of what it simulated.
func (b *bench) runJob(i int, sp scope) (string, error) {
	switch b.workload {
	case "service":
		info, err := b.svc.job(b.pool[i], sp)
		if err != nil {
			return "", err
		}
		return svcFingerprint(info.Digest, info.TotalCycles, info.Checks), nil
	case "dist":
		d := sp.begin("dist.run")
		rr, _, err := dist.RunScenario(b.scs[i], core.Options{}, distConfig())
		d.end()
		if err != nil {
			return "", err
		}
		b.mu.Lock()
		if b.distRuns[i] == nil {
			b.distRuns[i] = rr
		}
		b.mu.Unlock()
		res := *rr.ScenarioResult
		res.Digest = rr.Digest
		return fingerprint(&res), nil
	}
	if sp.tr == nil {
		res, err := b.scs[i].Run(core.Options{})
		if err != nil {
			return "", err
		}
		return fingerprint(res), nil
	}
	b.noteInproc(sp.job, i)
	res, _, err := drive(b.scs[i], sp, 0)
	if err != nil {
		return "", err
	}
	return fingerprint(res), nil
}

func (b *bench) noteInproc(job, src int) {
	b.mu.Lock()
	b.jobSrc[job] = src
	b.mu.Unlock()
}

// jobRec is one timed job.
type jobRec struct {
	src   int
	start time.Duration // since the section started
	lat   time.Duration
	fp    string
	err   error
}

// section is one closed-loop timed section.
type section struct {
	jobs       []jobRec
	elapsed    time.Duration
	allocs     uint64  // heap objects allocated
	allocBytes uint64  // heap bytes allocated
	gcCPU      float64 // GC CPU seconds
	cpu        float64 // total CPU seconds
	statsReads int     // traced service: /stats reads after a done job
	statsLag   int     // ... that had not counted a session /wait returned done
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// timed runs closed-loop clients for d, each starting its next job only
// after the previous one returned. Job n runs pool entry n mod the pool
// size; firstJob keeps job ids unique across sections.
func (b *bench) timed(d time.Duration, tr *tracer, firstJob int) section {
	var (
		next atomic.Int64
		mu   sync.Mutex
		sec  section
		wg   sync.WaitGroup
	)
	next.Store(int64(firstJob))
	before := readRuntime()
	start := time.Now()
	for c := 0; c < b.clients(); c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for time.Since(start) < d {
				n := int(next.Add(1) - 1)
				src := (n - firstJob) % len(b.pool)
				job := rootScope(tr, n, lane).begin("job")
				t0 := time.Now()
				fp, err := b.runJob(src, job)
				lat := time.Since(t0)
				job.end()
				lagged := false
				if tr != nil && b.svc != nil && err == nil {
					lagged, err = b.svc.statsLag()
				}
				mu.Lock()
				sec.jobs = append(sec.jobs, jobRec{src: src, start: t0.Sub(start), lat: lat, fp: fp, err: err})
				if tr != nil && b.svc != nil {
					sec.statsReads++
					if lagged {
						sec.statsLag++
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sec.elapsed = time.Since(start)
	after := readRuntime()
	sec.allocs = after[0].Value.Uint64() - before[0].Value.Uint64()
	sec.allocBytes = after[1].Value.Uint64() - before[1].Value.Uint64()
	sec.gcCPU = after[2].Value.Float64() - before[2].Value.Float64()
	sec.cpu = after[3].Value.Float64() - before[3].Value.Float64()
	return sec
}

// ref is the in-process reference result of one pool entry.
type ref struct {
	fp  string
	ctr counters
	dur time.Duration
	err error
}

// verifyJob is the job id base of reference runs in the trace.
const verifyJob = 1 << 20

// references runs every pool entry once in-process (sliced like the
// session service for service jobs) and records its fingerprint and
// counters: the expected output of every timed job.
func (b *bench) references(tr *tracer) []ref {
	var slice int64
	if b.workload == "service" {
		slice = serveSlice
	}
	refs := make([]ref, len(b.pool))
	for i, sc := range b.scs {
		sp := rootScope(tr, verifyJob+i, 0).begin("verify")
		b.noteInproc(verifyJob+i, i)
		t0 := time.Now()
		res, ctr, err := drive(sc, sp, slice)
		refs[i].dur = time.Since(t0)
		sp.end()
		if err != nil {
			refs[i].err = err
			continue
		}
		refs[i].ctr = ctr
		if slice > 0 {
			refs[i].fp = svcFingerprint(res.Digest, res.TotalCycles, res.Checks)
		} else {
			refs[i].fp = fingerprint(res)
		}
	}
	return refs
}

// check counts the section's failed jobs: an error, or a fingerprint
// that differs from the reference. Every repeat of a pool entry is held
// to the same reference, so repeats that disagree fail too.
func check(sec section, refs []ref, log func(string, ...any)) (failed int) {
	for _, j := range sec.jobs {
		switch r := refs[j.src]; {
		case j.err != nil:
			log("job on pool entry %d: %v", j.src, j.err)
		case r.err != nil:
			log("reference run of pool entry %d: %v", j.src, r.err)
		case j.fp != r.fp:
			log("pool entry %d: fingerprint %s, reference %s", j.src, j.fp, r.fp)
		default:
			continue
		}
		failed++
	}
	return failed
}
