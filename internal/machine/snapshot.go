package machine

// Checkpoint/restore (DESIGN.md, "Checkpoint/restore"): Save serializes
// the complete simulation state — every chip, the memory systems, the
// in-flight network, the GDT, and the machine clock — to a versioned
// binary stream; Restore loads one into a compatible machine; Fork clones
// a machine through an in-memory snapshot.
//
// Snapshots are engine-agnostic: the naive and event engines hold
// bit-identical state between cycles, and Restore re-derives the
// event-engine wake caches by touching every chip — the always-safe early
// direction of the NextEvent contract — so the restored machine continues
// identically under any engine.
//
// Restore is all-or-nothing: the stream is fully decoded and validated
// into detached scratch components first, and only then committed, so a
// corrupt, truncated, or mismatched snapshot returns an error and leaves
// the machine exactly as it was.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/chip"
	"repro/internal/gtlb"
	"repro/internal/noc"
	"repro/internal/snap"
)

// SnapshotVersion is the current snapshot format version. Restore rejects
// any other version; the format has no cross-version migration. Version 2
// writes SDRAM chunks as sparse block-masked arrays (snap.Writer.Sparse)
// and each cache line's pointer tags as one mask word.
const SnapshotVersion = 2

// Magic words bracketing a snapshot stream ("MSIMSNAP" / "MSIMEND\n" as
// little-endian words): the header identifies the format before anything
// is decoded, the trailer proves the stream was not truncated after the
// last variable-length section.
const (
	snapshotMagic   = 0x50414e534d49534d // "MSIMSNAP"
	snapshotTrailer = 0x0a444e454d49534d // "MSIMEND\n"
)

// encodeConfig writes the parts of the configuration that define snapshot
// compatibility: the mesh shape and the chip's timing and capacity
// parameters. Engine selection (Naive) is
// deliberately excluded — it is not simulated state, and a snapshot taken
// under one engine restores under any other.
func encodeConfig(w *snap.Writer, cfg Config) {
	w.Int(cfg.Dims.X)
	w.Int(cfg.Dims.Y)
	w.Int(cfg.Dims.Z)
	c := cfg.Chip
	w.U64(c.Mem.SDRAM.Words)
	w.U64(c.Mem.SDRAM.RowWords)
	w.I64(c.Mem.SDRAM.RowHitLat)
	w.I64(c.Mem.SDRAM.RowMissLat)
	w.Int(c.Mem.Cache.Lines)
	w.Int(c.Mem.LTLBEntries)
	w.U64(c.Mem.LPT.Base)
	w.U64(c.Mem.LPT.Entries)
	w.I64(c.Mem.ReadHitLat)
	w.I64(c.Mem.WriteHitLat)
	w.I64(c.Mem.MissDetectLat)
	w.I64(c.Mem.PhysAccessLat)
	w.I64(c.Mem.LineLoadLat)
	w.I64(c.Net.InjectLat)
	w.I64(c.Net.HopLat)
	w.I64(c.Net.DeliverLat)
	w.I64(c.IntLat)
	w.I64(c.FPLat)
	w.I64(c.FDivLat)
	w.I64(c.XferLat)
	w.I64(c.GCCLat)
	w.I64(c.GTLBLat)
	w.Int(c.CSwitchPorts)
	w.Int(c.MsgQueueCap)
	w.Int(c.EventQueueCap)
	w.Int(c.SendCredits)
	w.I64(c.ResendDelay)
}

// decodeConfig reads a configuration written by encodeConfig.
func decodeConfig(r *snap.Reader) Config {
	var cfg Config
	cfg.Dims = noc.Coord{X: r.Int(), Y: r.Int(), Z: r.Int()}
	c := &cfg.Chip
	c.Mem.SDRAM.Words = r.U64()
	c.Mem.SDRAM.RowWords = r.U64()
	c.Mem.SDRAM.RowHitLat = r.I64()
	c.Mem.SDRAM.RowMissLat = r.I64()
	c.Mem.Cache.Lines = r.Int()
	c.Mem.LTLBEntries = r.Int()
	c.Mem.LPT.Base = r.U64()
	c.Mem.LPT.Entries = r.U64()
	c.Mem.ReadHitLat = r.I64()
	c.Mem.WriteHitLat = r.I64()
	c.Mem.MissDetectLat = r.I64()
	c.Mem.PhysAccessLat = r.I64()
	c.Mem.LineLoadLat = r.I64()
	c.Net.InjectLat = r.I64()
	c.Net.HopLat = r.I64()
	c.Net.DeliverLat = r.I64()
	c.IntLat = r.I64()
	c.FPLat = r.I64()
	c.FDivLat = r.I64()
	c.XferLat = r.I64()
	c.GCCLat = r.I64()
	c.GTLBLat = r.I64()
	c.CSwitchPorts = r.Int()
	c.MsgQueueCap = r.Int()
	c.EventQueueCap = r.Int()
	c.SendCredits = r.Int()
	c.ResendDelay = r.I64()
	return cfg
}

// Digest is the canonical state fingerprint: the hex sha256 of the Save
// stream. Two machines with equal digests hold bit-identical simulation
// state, whichever engine produced them.
func Digest(m *Machine) (string, error) {
	h := sha256.New()
	if err := m.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Save serializes the machine's complete simulation state to w. It must
// be called between cycles (any point where Step/Run/RunUntil is not
// executing — the same contract as Close). Not captured, by design: the
// engine configuration, trace callbacks, and chip wake hooks —
// environment, not state — and the event-engine wake caches, which
// Restore re-derives.
func (m *Machine) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	sw := snap.NewWriter(bw)
	sw.U64(snapshotMagic)
	sw.U64(SnapshotVersion)
	encodeConfig(sw, m.Cfg)
	sw.I64(m.Cycle)
	sw.Len(len(m.nextPPN))
	for _, p := range m.nextPPN {
		sw.U64(p)
	}
	m.GDT.EncodeState(sw)
	for _, c := range m.Chips {
		c.EncodeState(sw)
	}
	m.Net.EncodeState(sw)
	sw.U64(snapshotTrailer)
	if err := sw.Err(); err != nil {
		return fmt.Errorf("machine: save: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("machine: save: %w", err)
	}
	return nil
}

// decodedState is a snapshot stream decoded into detached components:
// the scratch Restore validates and then adopts into a live machine, and
// the parts Fork builds its clone from.
type decodedState struct {
	cycle   int64
	nextPPN []uint64
	gdt     *gtlb.Table
	chips   []*chip.Chip
	net     *noc.Network
}

// decodeState reads a stream written by Save for a machine of
// configuration cfg. The chips are decoded bound to net and to the
// decoded GDT; the network section decodes into separate scratch, since
// the chips need their network before the stream reaches it. Every
// validation error comes back here, before a caller touches anything.
func decodeState(r *snap.Reader, cfg Config, net *noc.Network) (*decodedState, error) {
	if magic := r.U64(); r.Err() == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("not a snapshot stream (bad magic %#x)", magic)
	}
	if v := r.U64(); r.Err() == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d (this build reads version %d)", v, SnapshotVersion)
	}
	if sc := decodeConfig(r); r.Err() == nil && (sc.Dims != cfg.Dims || sc.Chip != cfg.Chip) {
		return nil, fmt.Errorf("snapshot of a %v mesh with a different configuration cannot restore into this %v machine",
			sc.Dims, cfg.Dims)
	}
	nodes := net.NumNodes()
	st := &decodedState{cycle: r.I64()}
	st.nextPPN = make([]uint64, r.Len(nodes))
	if r.Err() == nil && len(st.nextPPN) != nodes {
		r.Fail(fmt.Errorf("machine: snapshot has %d page allocators for %d nodes", len(st.nextPPN), nodes))
	}
	for i := range st.nextPPN {
		st.nextPPN[i] = r.U64()
	}
	st.gdt = gtlb.DecodeTableState(r)
	st.chips = make([]*chip.Chip, nodes)
	for i := range st.chips {
		st.chips[i] = chip.DecodeChipState(r, cfg.Chip, net.CoordOf(i), i, net, st.gdt)
	}
	st.net = noc.DecodeNetworkState(r, cfg.Dims, cfg.Chip.Net)
	if t := r.U64(); r.Err() == nil && t != snapshotTrailer {
		r.Fail(fmt.Errorf("machine: snapshot trailer missing (stream corrupt)"))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// Restore replaces the machine's simulation state with a snapshot written
// by Save. The target must have the same mesh shape and chip
// configuration as the saved machine (the snapshot carries both and
// Restore verifies them); the engine configuration, installed trace
// callbacks, and fault probe of the target are preserved. On any error
// the machine is left untouched.
func (m *Machine) Restore(rd io.Reader) error {
	// Phase 1: decode everything into detached scratch state. All
	// validation happens against the reader's sticky error; nothing here
	// touches the live machine.
	st, err := decodeState(snap.NewReader(bufio.NewReader(rd)), m.Cfg, m.Net)
	if err != nil {
		return fmt.Errorf("machine: restore: %w", err)
	}

	// Phase 2: commit. Adopt the scratch state in place — infallible from
	// here on.
	m.Cycle = st.cycle
	copy(m.nextPPN, st.nextPPN)
	m.GDT.Adopt(st.gdt)
	for i, c := range m.Chips {
		c.Adopt(st.chips[i])
	}
	m.Net.Adopt(st.net)
	// Re-derive the engine caches: touch every chip and rebuild the
	// arrival tracking and the run-loop activity counters from the
	// adopted state.
	m.WakeAll()
	m.recomputeActive()
	return nil
}

// Fork clones the machine through an in-memory snapshot: the clone has
// identical simulation state and engine configuration but no trace
// callbacks, and evolves independently of the original (what-if runs,
// record/replay debugging). The caller owns the clone's Close.
//
// The clone is built from the decoded components themselves — chips,
// GDT and network state — rather than by New followed by Restore, which
// would construct every chip's memory system and 2048-line cache only to
// replace them.
func (m *Machine) Fork() (*Machine, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, fmt.Errorf("machine: fork: %w", err)
	}
	r := snap.NewReader(&buf)
	r.Limit(int64(buf.Len()))
	net := noc.New(m.Cfg.Dims, m.Cfg.Chip.Net)
	st, err := decodeState(r, m.Cfg, net)
	if err != nil {
		return nil, fmt.Errorf("machine: fork: %w", err)
	}
	f := assemble(m.Cfg, net, st.gdt)
	f.Naive = m.Naive
	f.Cycle = st.cycle
	copy(f.nextPPN, st.nextPPN)
	copy(f.Chips, st.chips)
	net.Adopt(st.net)
	f.WakeAll()
	f.recomputeActive()
	return f, nil
}
