package chip_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/chip"
	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/rt"
	"repro/internal/snap"
)

// newChip builds a single standalone chip on a 2x1x1 mesh with a GDT
// mapping the first pages to node 0.
func newChip(t *testing.T) *chip.Chip {
	t.Helper()
	cfg := chip.DefaultConfig()
	net := noc.New(noc.Coord{X: 2, Y: 1, Z: 1}, cfg.Net)
	gdt := &gtlb.Table{}
	if err := gdt.Add(gtlb.Entry{
		VirtPage: 0, GroupPages: 8, Start: gtlb.NodeID{}, PagesPerNode: 8,
	}); err != nil {
		t.Fatal(err)
	}
	return chip.New(cfg, noc.Coord{}, 0, net, gdt)
}

func load(t *testing.T, c *chip.Chip, vt, cl int, src string, priv bool) {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadProgram(vt, cl, p, priv)
}

func stepUntilHalt(t *testing.T, c *chip.Chip, vt, cl int, max int64) {
	t.Helper()
	for i := int64(0); i < max; i++ {
		if c.Thread(vt, cl).Status == cluster.ThreadHalted {
			// Drain pending writebacks.
			for j := 0; j < 16; j++ {
				c.Step(c.Cycle)
			}
			return
		}
		c.Step(c.Cycle)
	}
	th := c.Thread(vt, cl)
	t.Fatalf("thread (%d,%d) did not halt: status=%v pc=%d fault=%q",
		vt, cl, th.Status, th.PC, th.FaultMsg)
}

func ireg(c *chip.Chip, vt, cl, i int) uint64 { return c.Thread(vt, cl).Ints.Get(i).Bits }

func TestIntegerALUSemantics(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #-12
    movi i2, #5
    add  i3, i1, i2
    sub  i4, i1, i2
    mul  i5, i1, i2
    div  i6, i1, i2
    mod  i7, i1, i2
    and  i8, i1, i2
    xor  i9, i1, i2
    shl  i10, i2, #3
    sra  i11, i1, #2
    shr  i12, i2, #1
    lt   i13, i1, i2
    ge   i14, i1, i2
    ne   i15, i1, i2
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 200)
	var m12 = uint64(0xFFFFFFFFFFFFFFF4) // -12 two's complement
	want := map[int]int64{
		3: -7, 4: -17, 5: -60, 6: -2, 7: -2,
		8: int64(m12 & 5), 9: int64(m12 ^ 5),
		10: 40, 11: -3, 12: 2, 13: 1, 14: 0, 15: 1,
	}
	for reg, w := range want {
		if got := int64(ireg(c, 0, 0, reg)); got != w {
			t.Errorf("i%d = %d, want %d", reg, got, w)
		}
	}
}

func TestFPSemantics(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #3
    movi i2, #4
    itof f1, i1
    itof f2, i2
    fadd f3, f1, f2
    fsub f4, f1, f2
    fmul f5, f1, f2
    fdiv f6, f2, f1
    fneg f7, f1
    flt  i3, f1, f2
    fle  i4, f2, f1
    feq  i5, f1, f1
    ftoi i6, f5
    fmov f8, f5
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 200)
	f := func(i int) float64 { return math.Float64frombits(c.Thread(0, 0).FPs.Get(i).Bits) }
	if f(3) != 7 || f(4) != -1 || f(5) != 12 || f(7) != -3 {
		t.Errorf("fp: f3=%v f4=%v f5=%v f7=%v", f(3), f(4), f(5), f(7))
	}
	if math.Abs(f(6)-4.0/3.0) > 1e-12 {
		t.Errorf("fdiv = %v", f(6))
	}
	if ireg(c, 0, 0, 3) != 1 || ireg(c, 0, 0, 4) != 0 || ireg(c, 0, 0, 5) != 1 {
		t.Error("fp compares wrong")
	}
	if ireg(c, 0, 0, 6) != 12 {
		t.Errorf("ftoi = %d", ireg(c, 0, 0, 6))
	}
	if f(8) != 12 {
		t.Errorf("fmov = %v", f(8))
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, "movi i1, #1\nmovi i2, #0\ndiv i3, i1, i2\nhalt", true)
	for i := 0; i < 50; i++ {
		c.Step(c.Cycle)
	}
	if c.Thread(0, 0).Status != cluster.ThreadFaulted {
		t.Error("divide by zero should fault the thread")
	}
	if c.ExcQueue().Empty() {
		t.Error("exception record missing")
	}
}

func TestFPLatencyLongerThanInt(t *testing.T) {
	c := newChip(t)
	// Dependent chains: int chain completes back-to-back; FP chain pays
	// FPLat per link.
	load(t, c, 0, 0, `
    movi i1, #1
    itof f1, i1
    mov  i8, cyc
    fadd f2, f1, f1
    fadd f3, f2, f2
    mov  i9, cyc
    add  i2, i1, i1
    add  i3, i2, i2
    mov  i10, cyc
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 200)
	fpChain := int64(ireg(c, 0, 0, 9) - ireg(c, 0, 0, 8))
	intChain := int64(ireg(c, 0, 0, 10) - ireg(c, 0, 0, 9))
	if fpChain <= intChain {
		t.Errorf("fp chain (%d cycles) not slower than int chain (%d)", fpChain, intChain)
	}
}

func TestPerClusterIssueIsOnePerCycle(t *testing.T) {
	c := newChip(t)
	// A straight-line 3-wide program: N instructions take ~N cycles.
	load(t, c, 0, 0, `
    movi i1, #1 | movi f1, #0
    add i2, i1, i1 | movi i3, #7
    add i4, i2, i2 | movi i5, #9
    halt
`, true)
	start := c.Cycle
	stepUntilHalt(t, c, 0, 0, 100)
	_ = start
	if got := c.Thread(0, 0).Issued; got != 4 {
		t.Errorf("issued %d instructions, want 4", got)
	}
	if got := c.Thread(0, 0).OpsIssued; got != 7 {
		t.Errorf("issued %d ops, want 7", got)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	c := newChip(t)
	src := `
    movi i1, #0
loop:
    add i1, i1, #1
    br loop
`
	load(t, c, 0, 0, src, true)
	load(t, c, 1, 0, src, true)
	load(t, c, 2, 0, src, true)
	for i := 0; i < 300; i++ {
		c.Step(c.Cycle)
	}
	a, b, d := c.Thread(0, 0).Issued, c.Thread(1, 0).Issued, c.Thread(2, 0).Issued
	if a == 0 || b == 0 || d == 0 {
		t.Fatalf("starvation: %d/%d/%d", a, b, d)
	}
	maxv, minv := a, a
	for _, v := range []uint64{b, d} {
		if v > maxv {
			maxv = v
		}
		if v < minv {
			minv = v
		}
	}
	if maxv-minv > 2 {
		t.Errorf("unfair interleaving: %d/%d/%d", a, b, d)
	}
}

func TestClustersIssueInParallel(t *testing.T) {
	c := newChip(t)
	src := `
    movi i1, #0
    movi i2, #50
loop:
    add i1, i1, #1
    lt  i3, i1, i2
    brt i3, loop
    halt
`
	for cl := 0; cl < isa.NumClusters; cl++ {
		load(t, c, 0, cl, src, true)
	}
	for i := 0; i < 400; i++ {
		c.Step(c.Cycle)
	}
	// All four clusters run the same program concurrently: total duration
	// must be ~the single-cluster duration, not 4x.
	for cl := 0; cl < isa.NumClusters; cl++ {
		if c.Thread(0, cl).Status != cluster.ThreadHalted {
			t.Errorf("cluster %d did not finish", cl)
		}
	}
}

func TestGCCBroadcastReachesAllClusters(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #1
    eq gcc2, i1, i1
    halt
`, true)
	waiter := `
    mov i5, gcc2
    halt
`
	for cl := 1; cl < isa.NumClusters; cl++ {
		load(t, c, 0, cl, waiter, true)
	}
	for i := 0; i < 100; i++ {
		c.Step(c.Cycle)
	}
	for cl := 1; cl < isa.NumClusters; cl++ {
		if ireg(c, 0, cl, 5) != 1 {
			t.Errorf("cluster %d gcc copy = %d, want 1", cl, ireg(c, 0, cl, 5))
		}
	}
}

func TestEmptyGCCIsLocalOnly(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #1
    eq gcc1, i1, i1
    empty gcc1
    halt
`, true)
	load(t, c, 0, 1, `
    mov i5, gcc1
    halt
`, true)
	for i := 0; i < 100; i++ {
		c.Step(c.Cycle)
	}
	// Cluster 1's replica must still be full (cluster 0 emptied only its
	// own copy), so the waiter completes.
	if c.Thread(0, 1).Status != cluster.ThreadHalted {
		t.Error("cluster 1 should have consumed its own gcc copy")
	}
	if ireg(c, 0, 1, 5) != 1 {
		t.Errorf("cluster 1 read %d", ireg(c, 0, 1, 5))
	}
}

func TestCSwitchPortBudget(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.CSwitchPorts = 1
	net := noc.New(noc.Coord{X: 1, Y: 1, Z: 1}, cfg.Net)
	c := chip.New(cfg, noc.Coord{}, 0, net, &gtlb.Table{})
	// Two clusters transfer cross-cluster in the same cycle: with one
	// port, the second must wait a cycle — both still complete.
	src := `
    movi i1, #7
    mov @3.i5, i1
    halt
`
	load(t, c, 0, 0, src, true)
	load(t, c, 0, 1, "movi i1, #8\nmov @3.i6, i1\nhalt", true)
	for i := 0; i < 100; i++ {
		c.Step(c.Cycle)
	}
	if ireg(c, 0, 3, 5) != 7 || ireg(c, 0, 3, 6) != 8 {
		t.Errorf("transfers lost: i5=%d i6=%d", ireg(c, 0, 3, 5), ireg(c, 0, 3, 6))
	}
}

func TestUserNetReadIsProtected(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, "mov i1, net\nhalt", false)
	for i := 0; i < 50; i++ {
		c.Step(c.Cycle)
	}
	th := c.Thread(0, 0)
	// A user thread reading net has no queue mapped: it must never issue
	// (stall forever), not read message data.
	if th.Status != cluster.ThreadRunning || th.PC != 0 {
		t.Errorf("user net read: status=%v pc=%d", th.Status, th.PC)
	}
	if th.Issued != 0 {
		t.Error("user net read issued")
	}
}

func TestLoadMarksDestEmptyUntilFill(t *testing.T) {
	c := newChip(t)
	c.Mem.MapPage(0, 0, mem.BSReadWrite)
	c.Mem.SDRAM.Write(5, 99, false)
	load(t, c, 0, 0, `
    movi i1, #5
    ld i2, [i1]
    halt
`, true)
	// Step until the ld issues; immediately after, i2 must be empty.
	for i := 0; i < 3; i++ {
		c.Step(c.Cycle)
	}
	if c.Thread(0, 0).Ints.Full(2) {
		t.Error("load destination should be empty while in flight")
	}
	stepUntilHalt(t, c, 0, 0, 100)
	if ireg(c, 0, 0, 2) != 99 {
		t.Errorf("load result = %d", ireg(c, 0, 0, 2))
	}
}

func TestSendConsumesCreditAndAckRestores(t *testing.T) {
	cfg := chip.DefaultConfig()
	net := noc.New(noc.Coord{X: 2, Y: 1, Z: 1}, cfg.Net)
	gdt := &gtlb.Table{}
	if err := gdt.Add(gtlb.Entry{
		VirtPage: 0, GroupPages: 8,
		Start: gtlb.NodeID{X: 1}, PagesPerNode: 8,
	}); err != nil {
		t.Fatal(err)
	}
	c0 := chip.New(cfg, noc.Coord{}, 0, net, gdt)
	c1 := chip.New(cfg, noc.Coord{X: 1}, 1, net, gdt)
	load(t, c0, 0, 0, `
    movi i1, #100
    movi i2, #5
    movi i8, #42
    send i1, i2, i8, #1
    halt
`, true)
	credits0 := c0.Credits()
	for i := 0; i < 60; i++ {
		now := c0.Cycle
		c0.Step(now)
		c1.Step(now)
		c0.FlushNet(now)
		c1.FlushNet(now)
		net.Step(now)
	}
	if c1.MsgQueue(0).Empty() {
		t.Fatal("message never arrived")
	}
	if got := c1.MsgQueue(0).Pop().Bits; got != 5 {
		t.Errorf("first queue word = %d, want DIP 5", got)
	}
	if got := c1.MsgQueue(0).Pop().Bits; got != 100 {
		t.Errorf("second queue word = %d, want address 100", got)
	}
	if got := c1.MsgQueue(0).Pop().Bits; got != 42 {
		t.Errorf("body word = %d, want 42", got)
	}
	if c0.Credits() != credits0 {
		t.Errorf("credits = %d, want restored %d", c0.Credits(), credits0)
	}
}

func TestDirectoryOps(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #64
    movi i2, #3
    dirlog i1, i2
    movi i3, #5
    dirlog i1, i3
    dircnt i4, [i1]
    movi i5, #128
    dircnt i6, [i5]
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 100)
	if ireg(c, 0, 0, 4) != 2 {
		t.Errorf("dircnt = %d, want 2", ireg(c, 0, 0, 4))
	}
	if ireg(c, 0, 0, 6) != 0 {
		t.Errorf("dircnt empty = %d, want 0", ireg(c, 0, 0, 6))
	}
}

func TestJmprDispatch(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #3
    jmpr i1
    movi i2, #111        ; skipped
target:
    movi i2, #222
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 100)
	if ireg(c, 0, 0, 2) != 222 {
		t.Errorf("i2 = %d, want 222 (jmpr must skip)", ireg(c, 0, 0, 2))
	}
}

func TestBranchTakenAndNotTaken(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #0
    brt i1, bad          ; not taken
    movi i2, #1
    brf i1, good         ; taken
bad:
    movi i3, #99
good:
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 100)
	if ireg(c, 0, 0, 2) != 1 || ireg(c, 0, 0, 3) != 0 {
		t.Errorf("i2=%d i3=%d", ireg(c, 0, 0, 2), ireg(c, 0, 0, 3))
	}
}

func TestNodeThrCycSpecials(t *testing.T) {
	c := newChip(t)
	load(t, c, 2, 1, `
    mov i1, node
    mov i2, thr
    mov i3, cyc
    mov i4, cyc
    halt
`, true)
	stepUntilHalt(t, c, 2, 1, 100)
	if ireg(c, 2, 1, 1) != 0 {
		t.Errorf("node = %d", ireg(c, 2, 1, 1))
	}
	if ireg(c, 2, 1, 2) != 2 {
		t.Errorf("thr = %d, want 2", ireg(c, 2, 1, 2))
	}
	if ireg(c, 2, 1, 4) != ireg(c, 2, 1, 3)+1 {
		t.Errorf("cyc not monotonic: %d then %d", ireg(c, 2, 1, 3), ireg(c, 2, 1, 4))
	}
}

// TestBusyALUCycleNoAllocs pins the issue stage's allocation budget: a
// cycle in which every cluster issues ALU and FP work from two V-Threads
// (the plain-instruction fast path, writebacks, round-robin selection)
// allocates nothing.
func TestBusyALUCycleNoAllocs(t *testing.T) {
	c := newChip(t)
	for vt := 0; vt < 2; vt++ {
		for cl := 0; cl < isa.NumClusters; cl++ {
			load(t, c, vt, cl, `
    movi i1, #0
    movi i2, #1000000000
    movi i3, #7
    movi i9, #3
    itof f1, i9
    itof f2, i9
loop:
    add i3, i3, #5 | xor i4, i4, i3 | fadd f2, f2, f1
    mul i6, i6, i3 | add i1, i1, #1 | fmul f3, f2, f1
    sub i4, i4, i6 | lt i5, i1, i2 | fadd f2, f2, f3
    brt i5, loop
    halt
`, false)
		}
	}
	for i := 0; i < 100; i++ {
		c.Step(c.Cycle)
	}
	before := c.InstsIssued
	if avg := testing.AllocsPerRun(1000, func() { c.Step(c.Cycle) }); avg != 0 {
		t.Errorf("busy ALU cycle allocates %.2f objects, want 0", avg)
	}
	// Every cluster must have been issuing, or the pin measures an idle
	// chip.
	if got := c.InstsIssued - before; got < 1001*isa.NumClusters/2 {
		t.Errorf("%d instructions issued over 1001 cycles on %d clusters: chip was not busy", got, isa.NumClusters)
	}
}

// TestPlainReadyStateSpace drives the mask-versus-walk comparison of
// Chip.CheckPlainReady over every scoreboard state that matters: for each
// plain instruction of the runtime handlers, the checked-in programs and
// a hazard-heavy synthetic program, every full/empty combination of the
// registers it names, with the other registers all full and all empty.
// (The workload-driven differential tests in core and wgen see only the
// states their programs reach; this one covers write-after-write stalls
// and the rest of the combinations directly.)
func TestPlainReadyStateSpace(t *testing.T) {
	r, err := rt.New(mem.DefaultConfig(), rt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	progs := []*isa.Program{r.FaultHandler, r.LTLBHandler, r.MsgHandler, r.ReplyHandler, r.ExcHandler}
	files, err := filepath.Glob("../../testdata/*.masm")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := asm.Assemble(f, string(src))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	progs = append(progs, asm.MustAssemble("hazards", `
    movi i4, #1 | movi i5, #2 | fmov f1, f2
    add i3, i4, i5 | sub i6, i7, #3 | fadd f3, f4, f5
    mul i1, i1, i2 | lea i8, i9, #4 | fmul f6, f6, f7
    xor i11, i12, i13 | itof f8, i10
    shl i1, i2, i3 | ftoi i14, f9
    brt i15, #0 | feq i2, f10, f11
    empty i5 | empty f12
    jmpr i3
    halt
`))
	c := newChip(t)
	compared := 0
	for _, p := range progs {
		c.LoadProgram(0, 0, p, true)
		th := c.Thread(0, 0)
		for pc := range p.Insts {
			d := p.Insts[pc].Decoded()
			if !d.Plain {
				continue
			}
			th.PC = pc
			named := uint32(d.IntMask) | uint32(d.FPMask)<<16
			for _, others := range []bool{true, false} {
				// Every subset of the named registers is full.
				for sub := named; ; sub = (sub - 1) & named {
					for i := 0; i < isa.NumIntRegs; i++ {
						setFull(th.Ints, i, sub&(1<<i) != 0 || named&(1<<i) == 0 && others)
						setFull(th.FPs, i, sub&(1<<(16+i)) != 0 || named&(1<<(16+i)) == 0 && others)
					}
					n, _, err := c.CheckPlainReady(c.Cycle)
					if err != nil {
						t.Fatalf("%s: %v", p.Name, err)
					}
					compared += n
					if sub == 0 {
						break
					}
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no plain instruction compared")
	}
}

func setFull(rf *cluster.RegFile, i int, full bool) {
	if full {
		rf.Set(i, rf.Get(i))
	} else {
		rf.MarkEmpty(i)
	}
}

// TestDecodedChipWiredAsNew pins that DecodeChipState returns a chip
// wired as New wires one, which Fork relies on when it steps decoded
// chips directly: every hardware queue has New's bound, the GTLB refills
// from the GDT it was given, and the console is attached to the I/O bus.
func TestDecodedChipWiredAsNew(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.EventQueueCap, cfg.MsgQueueCap = 3*events.RecordWords, 6
	net, gdt := twoNodeNetGdt(t, cfg)
	c := chip.New(cfg, net.CoordOf(0), 0, net, gdt)
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	c.EncodeState(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r := snap.NewReader(&buf)
	d := chip.DecodeChipState(r, cfg, net.CoordOf(0), 0, net, gdt)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	// A queue's bound shows as the number of records it accepts.
	fill := func(q *events.Queue) int {
		n := 0
		for n < 100 && q.Push(events.Record{}) {
			n++
		}
		return n
	}
	queues := map[string]func(*chip.Chip) *events.Queue{
		"exception": (*chip.Chip).ExcQueue,
		"msg0":      func(c *chip.Chip) *events.Queue { return c.MsgQueue(0) },
		"msg1":      func(c *chip.Chip) *events.Queue { return c.MsgQueue(1) },
	}
	for cl := 0; cl < isa.NumClusters; cl++ {
		queues[fmt.Sprintf("event%d", cl)] = func(c *chip.Chip) *events.Queue { return c.EventQueue(cl) }
	}
	for name, q := range queues {
		if got, want := fill(q(d)), fill(q(c)); got != want {
			t.Errorf("%s queue: decoded chip accepts %d records, New's %d", name, got, want)
		}
	}

	if got, err := d.GTLB.Translate(64); err != nil || got != (gtlb.NodeID{X: 1}) {
		t.Errorf("decoded GTLB translates to %v (%v), want node {1 0 0} from the GDT", got, err)
	}

	load(t, d, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #42
    stp [i1+1], i2
    halt
`, d.ConsoleBase()), true)
	stepUntilHalt(t, d, 0, 0, 200)
	if got := d.Console.String(); got != "42\n" {
		t.Errorf("decoded chip's console printed %q, want \"42\\n\"", got)
	}
}
