package main

// Seeded scenario generation. Every .wl source the benchmark runs comes
// from genPool(workload, seed): the same seed gives byte-identical
// sources, and no other input reaches the simulator. The seed varies
// operands, opcodes, placement, partners and the caching mode; it never
// varies the amount of work, so per-seed host times stay comparable and
// the run-to-run spread measures the host, not the inputs.
//
// Every generated scenario is self-checking: the generator computes the
// expected register values on the host and emits expect/check
// directives, so a job that finishes with wrong data fails.

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
)

// poolSize is the number of distinct scenarios per workload pool; the
// timed loop cycles through them.
const poolSize = 8

// rng is a splitmix64 stream.
type rng struct{ state uint64 }

// newRNG derives an independent stream for one job of one workload.
func newRNG(seed uint64, stream string, job int) *rng {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", stream, job)
	return &rng{state: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// in returns a value in [lo, hi].
func (r *rng) in(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

func (r *rng) pick(s []string) string { return s[r.in(0, len(s)-1)] }

// genSource is one generated scenario.
type genSource struct {
	Name string
	Src  string
}

// genPool returns the workload's scenario pool for seed. For dist it
// is remote's pool with every sweep point unrolled into a standalone
// scenario, so the two workloads run identical inputs.
func genPool(workload string, seed uint64) []genSource {
	var out []genSource
	for j := 0; j < poolSize; j++ {
		switch workload {
		case "compute":
			out = append(out, computeSource(seed, j))
		case "remote":
			out = append(out, remoteSource(seed, j, 0))
		case "service":
			out = append(out, serviceSource(seed, j))
		case "dist":
			for _, p := range remotePoints {
				out = append(out, remoteSource(seed, j, p))
			}
		}
	}
	return out
}

// ---- program fragments -------------------------------------------------

// intOps all share the integer latency and fpOps the FP latency, so the
// opcode choice changes values but not the timing structure.
var (
	intOps = []string{"add", "sub", "xor", "or", "and", "mul", "shl", "shr"}
	fpOps  = []string{"fadd", "fsub", "fmul"}
)

// aluThread is one seeded ALU/FP loop. Per iteration:
//
//	op1 i3, i3, #c1 | op2 i4, i4, #c2 | fadd f2, f2, f1
//	op3 i6, i6, i3  | add i1, i1, #1  | fop  f3, f4, f1
//	op4 i4, i4, i6  | lt i5, i1, i2   | fadd f2, f2, f3
//	brt i5, loop
//
// No slot reads a register another slot of the same instruction writes,
// so the host model below is exact.
type aluThread struct {
	op1, op2, op3, op4, fop string
	k                       [6]int64 // i3/i4/i6 start at node*k[2i]+k[2i+1]
	c1, c2                  int64
	fa, fb                  int64 // f1, f4 start values
}

func newALUThread(r *rng) aluThread {
	t := aluThread{
		op1: r.pick(intOps), op2: r.pick(intOps), op3: r.pick(intOps), op4: r.pick(intOps),
		fop: r.pick(fpOps),
		c1:  int64(r.in(1, 1<<16)), c2: int64(r.in(1, 1<<16)),
		fa: int64(r.in(1, 9)), fb: int64(r.in(1, 9)),
	}
	for i := range t.k {
		t.k[i] = int64(r.in(1, 1<<20))
	}
	return t
}

func aluStep(op string, a, b uint64) uint64 {
	switch op {
	case "add":
		return a + b
	case "sub":
		return a - b
	case "xor":
		return a ^ b
	case "or":
		return a | b
	case "and":
		return a & b
	case "mul":
		return uint64(int64(a) * int64(b))
	case "shl":
		return a << (b & 63)
	case "shr":
		return a >> (b & 63)
	}
	panic("hostbench: unknown int op " + op)
}

func fpStep(op string, a, b float64) float64 {
	switch op {
	case "fadd":
		return a + b
	case "fsub":
		return a - b
	case "fmul":
		return a * b
	}
	panic("hostbench: unknown fp op " + op)
}

// expect returns the final i4 and i7 of the loop on node after iters
// iterations.
func (t aluThread) expect(node int, iters int) (i4, i7 uint64) {
	n := int64(node)
	i3 := uint64(n*t.k[0] + t.k[1])
	i4 = uint64(n*t.k[2] + t.k[3])
	i6 := uint64(n*t.k[4] + t.k[5])
	f1, f4 := float64(t.fa), float64(t.fb)
	var f2, f3 float64
	for i := 0; i < iters; i++ {
		i3 = aluStep(t.op1, i3, uint64(t.c1))
		i4 = aluStep(t.op2, i4, uint64(t.c2))
		f2 += f1
		i6 = aluStep(t.op3, i6, i3)
		f3 = fpStep(t.fop, f4, f1)
		i4 = aluStep(t.op4, i4, i6)
		f2 += f3
	}
	return i4, uint64(int64(f2))
}

func (t aluThread) emit(b *strings.Builder, name string, iters int) {
	fmt.Fprintf(b, "\nprogram %s\n", name)
	fmt.Fprintf(b, "    movi i1, #0\n    movi i2, #%d\n", iters)
	fmt.Fprintf(b, "    movi i3, #{node*%d+%d}\n", t.k[0], t.k[1])
	fmt.Fprintf(b, "    movi i4, #{node*%d+%d}\n", t.k[2], t.k[3])
	fmt.Fprintf(b, "    movi i6, #{node*%d+%d}\n", t.k[4], t.k[5])
	fmt.Fprintf(b, "    movi i9, #%d\n    itof f1, i9\n", t.fa)
	fmt.Fprintf(b, "    movi i9, #%d\n    itof f4, i9\n", t.fb)
	b.WriteString("    movi i9, #0\n    itof f2, i9\n    itof f3, i9\n")
	b.WriteString("loop:\n")
	fmt.Fprintf(b, "    %s i3, i3, #%d | %s i4, i4, #%d | fadd f2, f2, f1\n", t.op1, t.c1, t.op2, t.c2)
	fmt.Fprintf(b, "    %s i6, i6, i3 | add i1, i1, #1 | %s f3, f4, f1\n", t.op3, t.fop)
	fmt.Fprintf(b, "    %s i4, i4, i6 | lt i5, i1, i2 | fadd f2, f2, f3\n", t.op4)
	b.WriteString("    brt i5, loop\n    ftoi i7, f2\n    halt\nend\n")
}

// word renders a register value as a DSL integer expression.
func word(v uint64) string {
	if int64(v) == math.MinInt64 {
		return "-9223372036854775807-1"
	}
	return fmt.Sprint(int64(v))
}

// remoteLeg is the seeded communication part of remote and service
// scenarios: a staging program that fills each node's data words and
// first-touches its mailboxes, remote loads from one other node's data,
// and sync-bit hand-offs through dipsync + ldsy.fe.
type remoteLeg struct {
	nodes          int
	s1, s2, s3     int64  // data word w of node n = n*s1 + s2 + w*s3
	dist, off      int    // node n loads words off.. of node (n+dist)%nodes
	masks          []int  // hand-off partner of node n in round k: n xor masks[k]
	hv, h0         int64  // node n sends n*hv + k + h0 in round k
	loads          string // remote loads per node, a DSL expression
	loadVT, handVT int
}

// Memory layout inside each node's 4096-word home range. The exchange
// generator owns [1536, 2048).
const (
	dataOff   = 2560 // seeded data words [dataOff, dataOff+dataWords)
	dataWords = 128
	syncOff   = 320 // hand-off mailbox words, one per round
	handRound = 4
	exMailbox = 1536
)

func newRemoteLeg(r *rng, nodes int) remoteLeg {
	l := remoteLeg{
		nodes: nodes,
		s1:    int64(r.in(1, 1000)), s2: int64(r.in(0, 1<<20)), s3: int64(r.in(1, 97)),
		dist: r.in(1, nodes-1), off: r.in(0, 16),
		hv: int64(r.in(1, 1000)), h0: int64(r.in(0, 1<<16)),
	}
	for k := 0; k < handRound; k++ {
		l.masks = append(l.masks, r.in(1, nodes-1))
	}
	return l
}

func (l remoteLeg) emitPrograms(b *strings.Builder) {
	fmt.Fprintf(b, `
program touch
    movi i1, #{home(node)+%d}
    movi i2, #{node*%d+%d}
    movi i3, #0
    movi i4, #%d
tloop:
    st [i1], i2
    add i1, i1, #1
    add i2, i2, #%d
    add i3, i3, #1
    lt i5, i3, i4
    brt i5, tloop
    movi i2, #0
`, dataOff, l.s1, l.s2, dataWords, l.s3)
	for k := 0; k < handRound; k++ {
		fmt.Fprintf(b, "    movi i1, #{home(node)+%d}\n    st [i1], i2\n", syncOff+k)
	}
	fmt.Fprintf(b, "    movi i1, #{home(node)+%d}\n    st [i1], i2\n    halt\nend\n", exMailbox)

	fmt.Fprintf(b, `
program rload
    movi i10, #0
    movi i3, #0
    movi i4, #{%s}
    movi i1, #{home((node+%d)%%nodes)+%d}
rloop:
    ld i5, [i1]
    add i10, i10, i5
    add i1, i1, #1
    add i3, i3, #1
    lt i6, i3, i4
    brt i6, rloop
    halt
end
`, l.loads, l.dist, dataOff+l.off)

	b.WriteString("\nprogram hand\n    movi i2, #{dipsync}\n    movi i4, #0\n")
	for k, m := range l.masks {
		fmt.Fprintf(b, "    movi i1, #{home(xor(node, %d))+%d}\n", m, syncOff+k)
		fmt.Fprintf(b, "    movi i3, #{node*%d+%d}\n", l.hv, int64(k)+l.h0)
		b.WriteString("    send i1, i2, i3, #1\n")
		fmt.Fprintf(b, "    movi i6, #{home(node)+%d}\n", syncOff+k)
		b.WriteString("    ldsy.fe i5, [i6]\n    add i4, i4, i5\n")
	}
	b.WriteString("    halt\nend\n")
}

func (l remoteLeg) emitLoads(b *strings.Builder) {
	fmt.Fprintf(b, "load rload on all vthread=%d\n", l.loadVT)
	fmt.Fprintf(b, "load hand on all vthread=%d\n", l.handVT)
}

func (l remoteLeg) emitExpects(b *strings.Builder) {
	ln := "(" + l.loads + ")"
	for n := 0; n < l.nodes; n++ {
		t := int64((n + l.dist) % l.nodes)
		base := t*l.s1 + l.s2
		// sum_{j<L} base + (off + j)*s3
		fmt.Fprintf(b, "expect reg node=%d vthread=%d reg=10 value=%s*%d+%d*(%s*%d+%s*(%s-1)/2)\n",
			n, l.loadVT, ln, base, l.s3, ln, l.off, ln, ln)
		var got int64
		for k, m := range l.masks {
			got += int64(n^m)*l.hv + int64(k) + l.h0
		}
		fmt.Fprintf(b, "expect reg node=%d vthread=%d reg=4 value=%d\n", n, l.handVT, got)
	}
}

// ---- workloads ---------------------------------------------------------

const computeIters = 1000

// computeSource: a 4x2 mesh, every node running seeded ALU/FP loops on
// all 4 clusters x 2 V-Threads; no memory traffic and no messages.
func computeSource(seed uint64, job int) genSource {
	r := newRNG(seed, "compute", job)
	var b strings.Builder
	fmt.Fprintf(&b, "; hostbench compute, seed %d job %d\n", seed, job)
	fmt.Fprintf(&b, "workload \"hostbench compute %d/%d\"\nmesh 4 2\n", seed, job)
	const nodes = 8
	var threads [2][4]aluThread
	for v := range threads {
		for c := range threads[v] {
			threads[v][c] = newALUThread(r)
			threads[v][c].emit(&b, fmt.Sprintf("alu_v%dc%d", v, c), computeIters)
		}
	}
	b.WriteString("\nphase compute\n")
	for v := range threads {
		for c := range threads[v] {
			fmt.Fprintf(&b, "load alu_v%dc%d on all vthread=%d cluster=%d\n", v, c, v, c)
		}
	}
	b.WriteString("run 2000000\n\n")
	for n := 0; n < nodes; n++ {
		for v := range threads {
			for c, t := range threads[v] {
				i4, i7 := t.expect(n, computeIters)
				fmt.Fprintf(&b, "expect reg node=%d vthread=%d cluster=%d reg=4 value=%s\n", n, v, c, word(i4))
				fmt.Fprintf(&b, "expect reg node=%d vthread=%d cluster=%d reg=7 value=%s\n", n, v, c, word(i7))
			}
		}
	}
	return genSource{Name: fmt.Sprintf("compute-%d-%d.wl", seed, job), Src: b.String()}
}

// remotePoints are the sweep values of a remote job: point P scales the
// remote loads and the SEND flood.
var remotePoints = []int{1, 2, 3}

const (
	remoteLoadsPerP = 16
	remoteMsgsPerP  = 8
)

// remoteSource: a 4x4 mesh; a staging prefix fills and first-touches
// every node's home words, then a sweep over remotePoints forks the
// staged machine per point. With point > 0 the sweep is replaced by that
// single point (the standalone scenario the dist workload runs). Half of
// each pool runs with caching on; the seed picks which half.
func remoteSource(seed uint64, job, point int) genSource {
	r := newRNG(seed, "remote", job)
	const nodes = 16
	var b strings.Builder
	fmt.Fprintf(&b, "; hostbench remote, seed %d job %d\n", seed, job)
	fmt.Fprintf(&b, "workload \"hostbench remote %d/%d\"\nmesh 4 4\n", seed, job)
	if cachingOn(seed, job) {
		b.WriteString("caching on\n")
	}
	name := fmt.Sprintf("remote-%d-%d.wl", seed, job)
	if point == 0 {
		b.WriteString("sweep P")
		for _, p := range remotePoints {
			fmt.Fprintf(&b, " %d", p)
		}
		b.WriteString("\n")
	} else {
		fmt.Fprintf(&b, "const P %d\n", point)
		name = fmt.Sprintf("remote-%d-%d-P%d.wl", seed, job, point)
	}
	l := newRemoteLeg(r, nodes)
	l.loads = fmt.Sprintf("P*%d", remoteLoadsPerP)
	l.loadVT, l.handVT = 0, 1
	l.emitPrograms(&b)
	fmt.Fprintf(&b, "\ngenerate ex exchange msgs=P*%d\n", remoteMsgsPerP)
	b.WriteString("\nphase stage\nload touch on all vthread=3 cluster=3\nrun 500000\n\nphase work\n")
	l.emitLoads(&b)
	b.WriteString("load ex on all vthread=2 cluster=1\nrun 5000000\n\n")
	l.emitExpects(&b)
	fmt.Fprintf(&b, "check exchange msgs=P*%d\n", remoteMsgsPerP)
	return genSource{Name: name, Src: b.String()}
}

// cachingOn selects exactly half of a pool for caching on.
func cachingOn(seed uint64, job int) bool {
	return (uint64(job)+seed%2)%2 == 0
}

const serviceIters = 3600

// serviceSource: a 2x2 mesh mixing a compute leg (ALU/FP loops on
// V-Thread 0, all clusters) with a remote leg (remote loads on V-Thread
// 1, sync hand-offs on V-Thread 2), staged like remote. No sweep: the
// session service runs standalone scenarios.
func serviceSource(seed uint64, job int) genSource {
	r := newRNG(seed, "service", job)
	const nodes = 4
	var b strings.Builder
	fmt.Fprintf(&b, "; hostbench service, seed %d job %d\n", seed, job)
	fmt.Fprintf(&b, "workload \"hostbench service %d/%d\"\nmesh 2 2\n", seed, job)
	var threads [4]aluThread
	for c := range threads {
		threads[c] = newALUThread(r)
		threads[c].emit(&b, fmt.Sprintf("alu_c%d", c), serviceIters)
	}
	l := newRemoteLeg(r, nodes)
	l.loads = "32"
	l.loadVT, l.handVT = 1, 2
	l.emitPrograms(&b)
	b.WriteString("\nphase stage\nload touch on all vthread=3 cluster=3\nrun 500000\n\nphase work\n")
	for c := range threads {
		fmt.Fprintf(&b, "load alu_c%d on all vthread=0 cluster=%d\n", c, c)
	}
	l.emitLoads(&b)
	b.WriteString("run 5000000\n\n")
	for n := 0; n < nodes; n++ {
		for c, t := range threads {
			i4, i7 := t.expect(n, serviceIters)
			fmt.Fprintf(&b, "expect reg node=%d vthread=0 cluster=%d reg=4 value=%s\n", n, c, word(i4))
			fmt.Fprintf(&b, "expect reg node=%d vthread=0 cluster=%d reg=7 value=%s\n", n, c, word(i7))
		}
	}
	l.emitExpects(&b)
	return genSource{Name: fmt.Sprintf("service-%d-%d.wl", seed, job), Src: b.String()}
}
