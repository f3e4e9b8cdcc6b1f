// Package sched is a latency-aware list scheduler that compiles dataflow
// graphs into 3-wide MAP instructions for a single cluster — a miniature of
// the Multiflow compiler port the paper describes ("The Multiflow compiler
// ... is currently able to generate code for a single cluster",
// Section 5). Given an expression DAG of loads, floating-point arithmetic,
// and stores, it produces an isa.Program that pairs memory and FP
// operations in the same instruction the way Figure 5(a)'s hand schedule
// does, honouring operation latencies so the scoreboard stalls are
// minimized for the static schedule length.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Kind classifies graph nodes.
type Kind uint8

const (
	KindLoad  Kind = iota // load word: base register + offset
	KindConst             // value preloaded in an FP register (weights)
	KindAdd               // FP add
	KindSub               // FP subtract
	KindMul               // FP multiply
	KindStore             // store a computed value
)

// Node is one dataflow operation.
type Node struct {
	id   int
	kind Kind

	// Load/Store addressing: [baseReg + Off].
	Base isa.Reg
	Off  int64

	// Const: the preloaded register.
	Reg isa.Reg

	// Operands (for Add/Sub/Mul: two; Store: one).
	args []*Node

	// Scheduling state.
	succs    []*Node
	nPreds   int
	prio     int // critical-path length to any sink
	cycle    int // issue cycle assigned by the scheduler
	resultIn isa.Reg
}

// Graph accumulates a dataflow DAG. Build with the value-returning
// methods, then call Schedule.
type Graph struct {
	nodes  []*Node
	stores []*Node
}

func (g *Graph) add(n *Node) *Node {
	n.id = len(g.nodes)
	g.nodes = append(g.nodes, n)
	return n
}

// Load introduces a memory load of [base+off].
func (g *Graph) Load(base isa.Reg, off int64) *Node {
	return g.add(&Node{kind: KindLoad, Base: base, Off: off})
}

// Const introduces a value already resident in an FP register (e.g. a
// weight loaded by the prelude).
func (g *Graph) Const(r isa.Reg) *Node {
	return g.add(&Node{kind: KindConst, Reg: r})
}

// Add returns a+b.
func (g *Graph) Add(a, b *Node) *Node {
	return g.add(&Node{kind: KindAdd, args: []*Node{a, b}})
}

// Sub returns a-b.
func (g *Graph) Sub(a, b *Node) *Node {
	return g.add(&Node{kind: KindSub, args: []*Node{a, b}})
}

// Mul returns a*b.
func (g *Graph) Mul(a, b *Node) *Node {
	return g.add(&Node{kind: KindMul, args: []*Node{a, b}})
}

// Store sinks v to [base+off].
func (g *Graph) Store(base isa.Reg, off int64, v *Node) {
	n := g.add(&Node{kind: KindStore, Base: base, Off: off, args: []*Node{v}})
	g.stores = append(g.stores, n)
}

// Sum reduces vs with a balanced tree of adds (shorter critical path than
// a linear chain, which the scheduler can then overlap with the loads).
func (g *Graph) Sum(vs ...*Node) *Node {
	if len(vs) == 0 {
		panic("sched: Sum of nothing")
	}
	for len(vs) > 1 {
		var next []*Node
		for i := 0; i+1 < len(vs); i += 2 {
			next = append(next, g.Add(vs[i], vs[i+1]))
		}
		if len(vs)%2 == 1 {
			next = append(next, vs[len(vs)-1])
		}
		vs = next
	}
	return vs[0]
}

// Latencies used for priority and issue modelling; they mirror the chip's
// defaults (load hit 3, FP 3).
const (
	latLoad = 3
	latFP   = 3
)

func (n *Node) latency() int {
	switch n.kind {
	case KindLoad:
		return latLoad
	case KindAdd, KindSub, KindMul:
		return latFP
	}
	return 1
}

// Config bounds the scheduler's resources.
type Config struct {
	// FPRegLow..FPRegHigh is the allocatable FP register range; registers
	// outside it are free for Const operands and the caller's prelude.
	FPRegLow, FPRegHigh int
}

// DefaultConfig allocates f3..f15, leaving f0..f2 for weights.
func DefaultConfig() Config { return Config{FPRegLow: 3, FPRegHigh: 15} }

// Schedule compiles the graph to a single-cluster program. The returned
// program ends with HALT; prepend any prelude (address/constant setup)
// before running it.
func Schedule(g *Graph, cfg Config) (*isa.Program, error) {
	if len(g.stores) == 0 {
		return nil, fmt.Errorf("sched: graph has no stores (dead code)")
	}
	// Wire successor edges and in-degrees.
	for _, n := range g.nodes {
		n.succs = nil
		n.nPreds = len(n.args)
	}
	for _, n := range g.nodes {
		for _, a := range n.args {
			a.succs = append(a.succs, n)
		}
	}
	// Priorities: longest path to a sink (classic list scheduling).
	order := topo(g)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		n.prio = n.latency()
		for _, s := range n.succs {
			if s.prio+n.latency() > n.prio {
				n.prio = s.prio + n.latency()
			}
		}
	}

	alloc := newRegAlloc(cfg)
	var insts []isa.Inst
	ready := []*Node{}
	for _, n := range g.nodes {
		if n.nPreds == 0 && n.kind != KindConst {
			ready = append(ready, n)
		}
		if n.kind == KindConst {
			// Consts are always available; retire them immediately.
			n.resultIn = n.Reg
			n.cycle = -1
			for _, s := range n.succs {
				s.nPreds--
				if s.nPreds == 0 {
					ready = append(ready, s)
				}
			}
		}
	}

	scheduled := 0
	total := 0
	for _, n := range g.nodes {
		if n.kind != KindConst {
			total++
		}
	}
	cycle := 0
	for scheduled < total {
		if cycle > 64*total+64 {
			return nil, fmt.Errorf("sched: no progress (register pressure too high?)")
		}
		// Candidates whose operands' results are available by this cycle.
		var memC, fpC []*Node
		for _, n := range ready {
			if n.availAt() > cycle {
				continue
			}
			switch n.kind {
			case KindLoad, KindStore:
				memC = append(memC, n)
			default:
				fpC = append(fpC, n)
			}
		}
		byPrio(memC)
		byPrio(fpC)

		// Issue the highest-priority candidate per unit whose register
		// needs can be met; register pressure throttles eager loads so a
		// long reduction does not exhaust the file.
		in := isa.Inst{}
		issuedAny := false
		for _, n := range memC {
			if !alloc.canIssue(n) {
				continue
			}
			op, err := emitMem(n, alloc)
			if err != nil {
				return nil, err
			}
			in.MOp = op
			n.retire(cycle, &ready)
			issuedAny = true
			scheduled++
			break
		}
		for _, n := range fpC {
			if !alloc.canIssue(n) {
				continue
			}
			op, err := emitFP(n, alloc)
			if err != nil {
				return nil, err
			}
			in.FOp = op
			n.retire(cycle, &ready)
			issuedAny = true
			scheduled++
			break
		}
		if issuedAny {
			insts = append(insts, in)
		}
		// Whether or not anything issued, time advances; an empty cycle is
		// a scoreboard stall the hardware takes at run time, so no
		// instruction is emitted for it and the static schedule stays
		// dense.
		cycle++
	}
	insts = append(insts, isa.Inst{IOp: &isa.Op{Code: isa.HALT}})
	return isa.NewProgram("sched", insts, map[string]int{}), nil
}

// availAt returns the first instruction slot n may occupy: strictly after
// every producer's slot. An operation must not share an instruction with
// its producer (all operations of an instruction issue together, so a
// same-slot consumer would read the stale pre-issue register value); any
// remaining latency is absorbed by the scoreboard at run time, which is
// exactly how Figure 5(a)'s hand schedule packs a load beside the add that
// consumes the previous load.
func (n *Node) availAt() int {
	at := 0
	for _, a := range n.args {
		if a.kind == KindConst {
			continue
		}
		if t := a.cycle + 1; t > at {
			at = t
		}
	}
	return at
}

// retire marks n issued at cycle and releases its successors.
func (n *Node) retire(cycle int, ready *[]*Node) {
	n.cycle = cycle
	out := (*ready)[:0]
	for _, r := range *ready {
		if r != n {
			out = append(out, r)
		}
	}
	*ready = out
	for _, s := range n.succs {
		s.nPreds--
		if s.nPreds == 0 {
			*ready = append(*ready, s)
		}
	}
}

func byPrio(ns []*Node) {
	sort.SliceStable(ns, func(i, j int) bool {
		if ns[i].prio != ns[j].prio {
			return ns[i].prio > ns[j].prio
		}
		return ns[i].id < ns[j].id
	})
}

// topo returns a topological order computed from the argument edges alone,
// so it is usable before Schedule wires the successor lists.
func topo(g *Graph) []*Node {
	indeg := make([]int, len(g.nodes))
	succs := make([][]*Node, len(g.nodes))
	for _, n := range g.nodes {
		indeg[n.id] = len(n.args)
		for _, a := range n.args {
			succs[a.id] = append(succs[a.id], n)
		}
	}
	var q, out []*Node
	for _, n := range g.nodes {
		if indeg[n.id] == 0 {
			q = append(q, n)
		}
	}
	for len(q) > 0 {
		n := q[0]
		q = q[1:]
		out = append(out, n)
		for _, s := range succs[n.id] {
			indeg[s.id]--
			if indeg[s.id] == 0 {
				q = append(q, s)
			}
		}
	}
	if len(out) != len(g.nodes) {
		panic("sched: cycle in dataflow graph")
	}
	return out
}

// regAlloc hands out FP registers, freeing a value's register when its
// last consumer issues.
type regAlloc struct {
	free []int
	uses map[*Node]int
}

func newRegAlloc(cfg Config) *regAlloc {
	ra := &regAlloc{uses: map[*Node]int{}}
	for r := cfg.FPRegHigh; r >= cfg.FPRegLow; r-- {
		ra.free = append(ra.free, r)
	}
	return ra
}

// canIssue reports whether n's destination register can be allocated,
// counting registers its own operands would free.
func (ra *regAlloc) canIssue(n *Node) bool {
	switch n.kind {
	case KindStore:
		return true // stores only free registers
	case KindLoad:
		return len(ra.free) > 0
	}
	// Count each distinct operand once (args may repeat, e.g. x*x); the
	// operand lists are tiny, so a quadratic dedup beats a map allocation
	// on this hot path and keeps the iteration order deterministic.
	freed := 0
	for i, a := range n.args {
		if a.kind == KindConst {
			continue
		}
		dup := false
		d := 0
		for j, b := range n.args {
			if b != a {
				continue
			}
			if j < i {
				dup = true
				break
			}
			d++
		}
		if !dup && ra.uses[a]-d == 0 {
			freed++
		}
	}
	return len(ra.free)+freed > 0
}

func (ra *regAlloc) def(n *Node) (isa.Reg, error) {
	if len(ra.free) == 0 {
		return isa.Reg{}, fmt.Errorf("sched: out of FP registers")
	}
	r := ra.free[len(ra.free)-1]
	ra.free = ra.free[:len(ra.free)-1]
	ra.uses[n] = len(n.succs)
	n.resultIn = isa.FP(r)
	return n.resultIn, nil
}

func (ra *regAlloc) use(n *Node) isa.Reg {
	if n.kind == KindConst {
		return n.Reg
	}
	ra.uses[n]--
	if ra.uses[n] == 0 {
		ra.free = append(ra.free, int(n.resultIn.Index))
	}
	return n.resultIn
}

func emitMem(n *Node, ra *regAlloc) (*isa.Op, error) {
	switch n.kind {
	case KindLoad:
		dst, err := ra.def(n)
		if err != nil {
			return nil, err
		}
		return &isa.Op{Code: isa.LD, Dst: dst, Src1: n.Base, Imm: n.Off}, nil
	case KindStore:
		src := ra.use(n.args[0])
		return &isa.Op{Code: isa.ST, Src1: n.Base, Src2: src, Imm: n.Off}, nil
	}
	return nil, fmt.Errorf("sched: %v is not a memory node", n.kind)
}

func emitFP(n *Node, ra *regAlloc) (*isa.Op, error) {
	var code isa.Opcode
	switch n.kind {
	case KindAdd:
		code = isa.FADD
	case KindSub:
		code = isa.FSUB
	case KindMul:
		code = isa.FMUL
	default:
		return nil, fmt.Errorf("sched: %v is not an FP node", n.kind)
	}
	a := ra.use(n.args[0])
	b := ra.use(n.args[1])
	dst, err := ra.def(n)
	if err != nil {
		return nil, err
	}
	return &isa.Op{Code: code, Dst: dst, Src1: a, Src2: b}, nil
}
