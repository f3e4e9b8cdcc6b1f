// Command hostbench is the simulator's host-performance benchmark: how
// fast the simulator runs on the host, not what the simulated machine
// does (simulated results are mbench's job). It generates .wl scenarios
// from a seed, runs them through the simulator's public entry points in
// a closed loop for a fixed time, verifies every job against an
// in-process reference, and prints one JSON result line. Run it from the
// repository root through run.sh, which builds it under .bench_build:
//
//	bash hostbench/run.sh --workload compute --seed 1 --seconds 25 --trace 0
//
// Workloads, metrics and seeds are described in hostbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// procStart approximates process start for the first set-up's clock.
var procStart = time.Now()

// setupRuns is how many times set-up runs; setup_s is their median.
const setupRuns = 7

var workloads = []string{"compute", "remote", "service", "dist"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: compute, remote, service or dist")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "length of the timed section")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if !validWorkload(*workload) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "hostbench: need --workload compute|remote|service|dist, --seconds >= 1, --trace 0|1")
		return 2
	}
	dir := filepath.Join(".bench_build", "hostbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "hostbench: "+format+"\n", args...) }

	var b *bench
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		nb, err := setupBench(*workload, *seed, dir)
		if err != nil {
			logf("set-up: %v", err)
			if b != nil {
				b.close()
			}
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
		if b != nil {
			b.close()
		}
		b = nb
	}
	defer b.close()

	d := time.Duration(*seconds) * time.Second
	st := stamp{Workload: *workload, Seed: *seed, Trace: *traced, Seconds: *seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version(),
		Commit: commit(), Distinct: len(b.pool), SetupRuns: setups}
	if *traced == 0 {
		sec := b.timed(d, nil, 0)
		rss := maxRSSMiB()
		b.close()
		refs := b.references(nil)
		failed := check(sec, refs, logf)
		return emit(st, sec.jobs, failed, endToEnd(sec, refs, setups, rss, &st))
	}

	plain := b.timed(d/2, nil, 0)
	tr := newTracer()
	tsec := b.timed(d-d/2, tr, len(plain.jobs))
	pr, err := b.probe(tr)
	if err != nil {
		logf("%v", err)
		return 1
	}
	b.close()
	refs := b.references(tr)
	failed := check(plain, refs, logf) + check(tsec, refs, logf)
	lm, bases := b.perLayer(plain, tsec, refs, tr, pr)
	st.Bases = bases
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", *workload, *seed))
	if err := tr.writeChrome(base+".trace.json", st); err != nil {
		logf("writing trace: %v", err)
		return 1
	}
	if err := writeJSON(base+".layers.json", map[string]any{"stamp": st, "metrics": lm, "layers": tr.layers()}); err != nil {
		logf("writing layers: %v", err)
		return 1
	}
	return emit(st, append(plain.jobs, tsec.jobs...), failed, lm)
}

func validWorkload(w string) bool {
	for _, v := range workloads {
		if v == w {
			return true
		}
	}
	return false
}

// stamp records the conditions of a run. It is printed on the line
// before the result.
type stamp struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      int                `json:"trace"`
	Seconds    int                `json:"seconds"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"nproc"`
	Go         string             `json:"go"`
	Commit     string             `json:"commit"`
	Distinct   int                `json:"distinct_jobs"`
	SetupRuns  []float64          `json:"setup_runs_s"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	ErrorRate  float64            `json:"error_rate"`
	Tail       *tailInfo          `json:"tail,omitempty"`
	Bases      map[string]float64 `json:"bases,omitempty"`
}

type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// commit is the revision the run was built from, passed in by run.sh.
func commit() string {
	if c := os.Getenv("HOSTBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func emit(st stamp, jobs []jobRec, failed int, m map[string]metric) int {
	st.Attempted, st.Failed = len(jobs), failed
	if len(jobs) > 0 {
		st.ErrorRate = float64(failed) / float64(len(jobs))
	}
	line, err := json.Marshal(map[string]any{"stamp": st})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	fmt.Println(string(line))
	line, err = json.Marshal(result{Correct: failed == 0 && len(jobs) > 0, Attempted: len(jobs), Failed: failed, Metrics: m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailLadder are the percentiles job_tail_ms may report: the highest one
// with at least ten jobs beyond it. The coarse steps keep the reported
// percentile fixed while the job count drifts with host speed.
var tailLadder = []float64{50, 75, 90, 99}

// latencies returns the median and the tail of the job latencies (ms).
func latencies(jobs []jobRec) (p50, tail float64, ti tailInfo) {
	v := make([]float64, len(jobs))
	for i, j := range jobs {
		v[i] = ms(j.lat)
	}
	sort.Float64s(v)
	ti.Samples = len(v)
	if len(v) == 0 {
		return 0, 0, ti
	}
	rank := func(p float64) int { return int(math.Ceil(p/100*float64(len(v)))) - 1 }
	ti.Percentile = tailLadder[0]
	for _, p := range tailLadder {
		if len(v)-(rank(p)+1) >= 10 {
			ti.Percentile = p
		}
	}
	r := rank(ti.Percentile)
	ti.Beyond = len(v) - (r + 1)
	return median(v), v[max(r, 0)], ti
}

// jobOps is the simulated operation count of a verified job, 0 otherwise.
func jobOps(j jobRec, refs []ref) float64 {
	if j.err != nil || refs[j.src].err != nil || j.fp != refs[j.src].fp {
		return 0
	}
	return float64(refs[j.src].ctr[cOps])
}

// okOps sums the simulated operations of the section's verified jobs.
func okOps(sec section, refs []ref) float64 {
	var ops float64
	for _, j := range sec.jobs {
		ops += jobOps(j, refs)
	}
	return ops
}

// windows is how many equal windows a timed section is cut into for the
// throughput medians.
const windows = 10

// windowRate is the median, over equal windows of the section, of the
// jobs' weight completed per second. Each job's weight is credited to
// the windows its run overlaps, in proportion to the overlap, so a short
// burst of host contention moves one window rather than the result.
func windowRate(sec section, weight func(jobRec) float64) float64 {
	w := sec.elapsed / windows
	if w <= 0 {
		return 0
	}
	rates := make([]float64, windows)
	for _, j := range sec.jobs {
		wt, end := weight(j), j.start+j.lat
		if wt == 0 || j.lat <= 0 {
			continue
		}
		for k := int(j.start / w); k < windows && time.Duration(k)*w < end; k++ {
			lo, hi := max(j.start, time.Duration(k)*w), min(end, time.Duration(k+1)*w)
			if hi > lo {
				rates[k] += wt * float64(hi-lo) / float64(j.lat)
			}
		}
	}
	for k := range rates {
		rates[k] /= w.Seconds()
	}
	return median(rates)
}

// endToEnd computes the metrics of an untraced run.
func endToEnd(sec section, refs []ref, setups []float64, rss float64, st *stamp) map[string]metric {
	p50, tail, ti := latencies(sec.jobs)
	st.Tail = &ti
	ops := okOps(sec, refs)
	return map[string]metric{
		"setup_s":               {median(setups), "s"},
		"jobs_per_s":            {windowRate(sec, func(jobRec) float64 { return 1 }), "jobs/s"},
		"job_p50_ms":            {p50, "ms"},
		"job_tail_ms":           {tail, "ms"},
		"sim_mops_per_s":        {windowRate(sec, func(j jobRec) float64 { return jobOps(j, refs) }) / 1e6, "Mops/s"},
		"alloc_objects_per_kop": {ratio(float64(sec.allocs), ops/1e3), "objects/kop"},
		"max_rss_mb":            {rss, "MiB"},
	}
}
