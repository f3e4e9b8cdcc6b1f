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
// any other version; the format has no cross-version migration.
const SnapshotVersion = 1

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

// Restore replaces the machine's simulation state with a snapshot written
// by Save. The target must have the same mesh shape and chip
// configuration as the saved machine (the snapshot carries both and
// Restore verifies them); the engine configuration, installed trace
// callbacks, and fault probe of the target are preserved. On any error
// the machine is left untouched.
func (m *Machine) Restore(rd io.Reader) error {
	r := snap.NewReader(bufio.NewReader(rd))
	if magic := r.U64(); r.Err() == nil && magic != snapshotMagic {
		return fmt.Errorf("machine: restore: not a snapshot stream (bad magic %#x)", magic)
	}
	if v := r.U64(); r.Err() == nil && v != SnapshotVersion {
		return fmt.Errorf("machine: restore: unsupported snapshot version %d (this build reads version %d)", v, SnapshotVersion)
	}
	cfg := decodeConfig(r)
	if r.Err() == nil && (cfg.Dims != m.Cfg.Dims || cfg.Chip != m.Cfg.Chip) {
		return fmt.Errorf("machine: restore: snapshot of a %v mesh with a different configuration cannot restore into this %v machine",
			cfg.Dims, m.Cfg.Dims)
	}

	// Phase 1: decode everything into detached scratch state. All
	// validation happens against the reader's sticky error; nothing below
	// touches the live machine.
	cycle := r.I64()
	nppn := make([]uint64, r.Len(len(m.Chips)))
	if r.Err() == nil && len(nppn) != len(m.Chips) {
		r.Fail(fmt.Errorf("machine: snapshot has %d page allocators for %d nodes", len(nppn), len(m.Chips)))
	}
	for i := range nppn {
		nppn[i] = r.U64()
	}
	gdt := gtlb.DecodeTableState(r)
	chips := make([]*chip.Chip, len(m.Chips))
	for i := range chips {
		chips[i] = chip.DecodeChipState(r, m.Cfg.Chip, m.Net.CoordOf(i), i, m.Net)
	}
	net := noc.DecodeNetworkState(r, m.Cfg.Dims, m.Cfg.Chip.Net)
	if t := r.U64(); r.Err() == nil && t != snapshotTrailer {
		r.Fail(fmt.Errorf("machine: snapshot trailer missing (stream corrupt)"))
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("machine: restore: %w", err)
	}

	// Phase 2: commit. Adopt the scratch state in place — infallible from
	// here on.
	m.Cycle = cycle
	copy(m.nextPPN, nppn)
	m.GDT.Adopt(gdt)
	for i, c := range m.Chips {
		c.Adopt(chips[i])
	}
	m.Net.Adopt(net)
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
func (m *Machine) Fork() (*Machine, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, fmt.Errorf("machine: fork: %w", err)
	}
	f := New(m.Cfg)
	f.Naive = m.Naive
	if err := f.Restore(&buf); err != nil {
		return nil, fmt.Errorf("machine: fork: %w", err)
	}
	return f, nil
}
