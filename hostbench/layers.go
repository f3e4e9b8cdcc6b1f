package main

// Per-layer metrics of the traced run. Simulated counters are summed over
// one reference run of every distinct pool entry, so they are exact and
// identical between runs of the same seed; host times come from the
// spans. Every ratio's base counts go into the stamp's bases.

import (
	"time"
)

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func durMedianMS(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = ms(x)
	}
	return median(v)
}

func (b *bench) perLayer(plain, traced section, refs []ref, tr *tracer, pr probeOut) (map[string]metric, map[string]float64) {
	var sum counters
	for _, r := range refs {
		sum.add(r.ctr)
	}
	c := func(i int) float64 { return float64(sum[i]) }
	lt := tr.layers()
	bases := map[string]float64{}
	for i, n := range counterNames {
		bases["sim."+n] = c(i)
	}

	// Machine time against the simulated work of the in-process jobs
	// that contain it.
	mach := lt["machine.advance"]
	var machTotal time.Duration
	if mach != nil {
		machTotal = mach.Total
	}
	rootTime, nodeCycles, ops := b.inprocRoots(tr, refs)
	bases["machine.advance_s"] = machTotal.Seconds()
	bases["machine.inproc_job_s"] = rootTime.Seconds()
	bases["machine.node_cycles"] = nodeCycles
	bases["machine.ops"] = ops

	// Distributed runs against in-process runs of the same scenarios.
	distRun, distInproc := pr.distRun, pr.distInproc
	ckpt, recov := pr.distCkpt, pr.distRecov
	if b.workload == "dist" {
		distRun = nil
		if l := lt["dist.run"]; l != nil {
			distRun = l.Durs
		}
		distInproc = nil
		for _, r := range refs {
			distInproc = append(distInproc, r.dur)
		}
		ckpt, recov = 0, 0
		for _, rr := range b.distRuns {
			ckpt += rr.Checkpoints
			recov += rr.Recoveries
		}
	}
	bases["dist.run_ms_median"] = durMedianMS(distRun)
	bases["dist.inproc_ms_median"] = durMedianMS(distInproc)

	statsReads, statsLag := traced.statsReads+pr.statsReads, traced.statsLag+pr.statsLag
	bases["serve.stats_reads"] = float64(statsReads)

	perJob := func(jobRec) float64 { return 1 }
	plainRate, tracedRate := windowRate(plain, perJob), windowRate(traced, perJob)
	bases["bench.untraced_jobs_per_s"] = plainRate
	bases["bench.traced_jobs_per_s"] = tracedRate
	plainOps := okOps(plain, refs)
	bases["go.ops_untraced"] = plainOps
	bases["go.gc_cpu_s"] = plain.gcCPU
	bases["go.cpu_s"] = plain.cpu

	m := map[string]metric{
		"wdsl.compile_ms":           {b.compileMS(tr), "ms"},
		"core.boot_ms":              {lt["core.boot"].medianMS(), "ms"},
		"machine.run_ms":            {mach.medianMS(), "ms"},
		"machine.run_share":         {ratio(machTotal.Seconds(), rootTime.Seconds()), "ratio"},
		"machine.ns_per_node_cycle": {ratio(float64(machTotal), nodeCycles), "ns/node-cycle"},
		"machine.ns_per_op":         {ratio(float64(machTotal), ops), "ns/op"},
		"chip.ops":                  {c(cOps), "count"},
		"chip.ops_per_node_cycle":   {ratio(c(cOps), c(cNodeCycles)), "ops/node-cycle"},
		"chip.stall_cycles":         {c(cStall), "count"},
		"chip.sends_blocked":        {c(cSendsBlocked), "count"},
		"chip.msgs_returned":        {c(cMsgsReturned), "count"},
		"mem.cache_hit_ratio":       {ratio(c(cCacheHits), c(cCacheHits)+c(cCacheMisses)), "ratio"},
		"mem.cache_misses":          {c(cCacheMisses), "count"},
		"mem.writebacks":            {c(cWritebacks), "count"},
		"mem.sdram_row_hit_ratio":   {ratio(c(cRowHits), c(cRowHits)+c(cRowMisses)), "ratio"},
		"mem.ltlb_hit_ratio":        {ratio(c(cLTLBHits), c(cLTLBHits)+c(cLTLBMisses)), "ratio"},
		"mem.ltlb_faults":           {c(cLTLBFaults), "count"},
		"mem.sync_faults":           {c(cSyncFaults), "count"},
		"gtlb.hit_ratio":            {ratio(c(cGTLBHits), c(cGTLBHits)+c(cGTLBMisses)), "ratio"},
		"noc.delivered":             {c(cDelivered), "count"},
		"noc.hops_per_msg":          {ratio(c(cHops), c(cDelivered)), "hops/msg"},
		"trace.events":              {c(cEvents), "count"},
		"trace.events_per_kcycle":   {ratio(c(cEvents), c(cCycles)/1e3), "events/kcycle"},
		"go.gc_cpu_frac":            {ratio(plain.gcCPU, plain.cpu), "ratio"},
		"go.alloc_bytes_per_kop":    {ratio(float64(plain.allocBytes), plainOps/1e3), "bytes/kop"},
		"snap.fork_ms":              {lt["snap.fork"].medianMS(), "ms"},
		"snap.save_ms":              {lt["snap.save"].medianMS(), "ms"},
		"snap.restore_ms":           {lt["snap.restore"].medianMS(), "ms"},
		"snap.bytes":                {float64(pr.snapBytes), "bytes"},
		"serve.submit_ms":           {lt["serve.submit"].medianMS(), "ms"},
		"serve.queue_ms":            {lt["serve.queue"].medianMS(), "ms"},
		"serve.run_ms":              {lt["serve.run"].medianMS(), "ms"},
		"serve.retries":             {float64(pr.serveRetries), "count"},
		"serve.shed":                {float64(pr.serveShed), "count"},
		"serve.stats_lag":           {float64(statsLag), "count"},
		"dist.run_ms":               {durMedianMS(distRun), "ms"},
		"dist.overhead_ratio":       {ratio(durMedianMS(distRun), durMedianMS(distInproc)), "ratio"},
		"dist.checkpoints":          {float64(ckpt), "count"},
		"dist.recoveries":           {float64(recov), "count"},
		"bench.trace_overhead_frac": {ratio(plainRate, tracedRate) - 1, "ratio"},
	}
	return m, bases
}

// inprocRoots sums, over the traced in-process jobs, their wall time
// and the simulated node-cycles and operations they ran.
func (b *bench) inprocRoots(tr *tracer, refs []ref) (wall time.Duration, nodeCycles, ops float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range tr.spans {
		src, ok := b.jobSrc[s.Job]
		if s.Parent != -1 || !ok || s.End < 0 {
			continue
		}
		wall += s.End - s.Start
		nodeCycles += float64(refs[src].ctr[cNodeCycles])
		ops += float64(refs[src].ctr[cOps])
	}
	return wall, nodeCycles, ops
}

// compileMS times ScenarioFromDSL over the pool, several rounds, and
// returns the median per scenario.
func (b *bench) compileMS(tr *tracer) float64 {
	sp := rootScope(tr, probeJob-1, 0).begin("probe")
	defer sp.end()
	var d []time.Duration
	for k := 0; k < layerReps; k++ {
		for _, g := range b.pool {
			q := sp.begin("wdsl.compile")
			t0 := time.Now()
			_, err := compile(g)
			d = append(d, time.Since(t0))
			q.end()
			if err != nil {
				return 0
			}
		}
	}
	return durMedianMS(d)
}
