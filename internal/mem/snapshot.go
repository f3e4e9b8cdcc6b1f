package mem

// Checkpoint support (DESIGN.md, "Checkpoint/restore"): the memory
// system's complete timed state — sparse SDRAM chunks with their
// pointer-tag and synchronization bitmaps, cache lines, LTLB entries and
// FIFO order, in-flight responses, and the bank/SDRAM timing windows.
// EncodeState streams, DecodeSystemState rebuilds a system (all
// validation happens here), and Adopt commits a decoded system into a
// live one in place, preserving its configuration and I/O-bus device
// attachment.

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/snap"
)

// Decode bounds against corrupt counts.
const (
	maxInflight = 1 << 20
	maxLTLB     = 1 << 16
)

// EncodeState writes the SDRAM's row-mode state, statistics, and the
// materialized chunks (lazy chunks that were never written are omitted —
// they read as zero either way). Each chunk's data words, pointer-tag
// bitmap and sync bitmap go out as snap.Writer.Sparse arrays, so a chunk
// costs its non-zero 64-word blocks, not its 64 KBytes.
func (s *SDRAM) EncodeState(w *snap.Writer) {
	w.U64(s.openRow)
	w.Bool(s.hasOpen)
	w.U64(s.RowHits)
	w.U64(s.RowMisses)
	n := 0
	for _, ch := range s.chunks {
		if ch != nil {
			n++
		}
	}
	w.Len(n)
	for i, ch := range s.chunks {
		if ch == nil {
			continue
		}
		w.Int(i)
		w.Sparse(ch.words[:])
		w.Sparse(ch.ptr[:])
		w.Sparse(ch.sync[:])
	}
}

// DecodeSDRAMState reads an SDRAM written by EncodeState.
func DecodeSDRAMState(r *snap.Reader, cfg SDRAMConfig) *SDRAM {
	s := NewSDRAM(cfg)
	s.openRow = r.U64()
	s.hasOpen = r.Bool()
	s.RowHits = r.U64()
	s.RowMisses = r.U64()
	n := r.Len(len(s.chunks))
	for i := 0; i < n; i++ {
		idx := r.Int()
		if r.Err() != nil {
			break
		}
		if idx < 0 || idx >= len(s.chunks) {
			r.Fail(fmt.Errorf("mem: snapshot chunk index %d outside %d-chunk SDRAM", idx, len(s.chunks)))
			break
		}
		ch := new(sdramChunk)
		r.Sparse(ch.words[:])
		r.Sparse(ch.ptr[:])
		r.Sparse(ch.sync[:])
		s.chunks[idx] = ch
	}
	return s
}

// Adopt replaces s's memory contents and row-mode state with src's.
func (s *SDRAM) Adopt(src *SDRAM) {
	s.chunks = src.chunks
	s.openRow = src.openRow
	s.hasOpen = src.hasOpen
	s.RowHits = src.RowHits
	s.RowMisses = src.RowMisses
}

// EncodeState writes the cache statistics and every valid line, its
// eight pointer tags packed into one Mask word.
func (c *Cache) EncodeState(w *snap.Writer) {
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Writebacks)
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	w.Len(n)
	for i := range c.lines {
		ln := &c.lines[i]
		if !ln.valid {
			continue
		}
		w.Int(i)
		w.U64(ln.tag)
		w.U64(ln.vblock)
		w.U64(ln.physBase)
		w.Bool(ln.writable)
		w.Bool(ln.dirty)
		w.RawU64s(ln.words[:])
		var ptrs uint64
		for j, p := range ln.ptrs {
			if p {
				ptrs |= 1 << j
			}
		}
		w.Mask(BlockWords, ptrs)
	}
}

// DecodeCacheState reads a cache written by EncodeState.
func DecodeCacheState(r *snap.Reader, cfg CacheConfig) *Cache {
	c := NewCache(cfg)
	c.Hits = r.U64()
	c.Misses = r.U64()
	c.Writebacks = r.U64()
	n := r.Len(len(c.lines))
	for i := 0; i < n; i++ {
		idx := r.Int()
		if r.Err() != nil {
			break
		}
		if idx < 0 || idx >= len(c.lines) {
			r.Fail(fmt.Errorf("mem: snapshot cache line %d outside %d-line cache", idx, len(c.lines)))
			break
		}
		ln := &c.lines[idx]
		ln.valid = true
		ln.tag = r.U64()
		ln.vblock = r.U64()
		ln.physBase = r.U64()
		ln.writable = r.Bool()
		ln.dirty = r.Bool()
		r.RawU64s(ln.words[:])
		ptrs := r.Mask(BlockWords)
		for j := range ln.ptrs {
			ln.ptrs[j] = ptrs&(1<<j) != 0
		}
	}
	return c
}

// Adopt replaces c's lines and statistics with src's. The line array is
// taken over wholesale (the scratch cache was decoded with c's own
// configuration, so the geometry matches; nothing holds line pointers
// across calls).
func (c *Cache) Adopt(src *Cache) {
	c.lines = src.lines
	c.Hits = src.Hits
	c.Misses = src.Misses
	c.Writebacks = src.Writebacks
}

func encodePTE(w *snap.Writer, e *PTE) {
	w.U64(e.VPN)
	w.U64(e.PPN)
	w.Bool(e.Valid)
	w.U64(e.Status[0])
	w.U64(e.Status[1])
}

func decodePTE(r *snap.Reader) PTE {
	return PTE{
		VPN:    r.U64(),
		PPN:    r.U64(),
		Valid:  r.Bool(),
		Status: [2]uint64{r.U64(), r.U64()},
	}
}

// EncodeState writes the LTLB's entry slots (including invalidated ones —
// the FIFO order indexes into them), replacement order, and statistics.
func (t *LTLB) EncodeState(w *snap.Writer) {
	w.Len(len(t.entries))
	for i := range t.entries {
		encodePTE(w, &t.entries[i])
	}
	w.Len(len(t.order))
	for _, i := range t.order {
		w.Int(i)
	}
	w.U64(t.Hits)
	w.U64(t.Misses)
}

// DecodeLTLBState reads an LTLB written by EncodeState.
func DecodeLTLBState(r *snap.Reader, capacity int) *LTLB {
	t := NewLTLB(capacity)
	n := r.Len(maxLTLB)
	for i := 0; i < n; i++ {
		t.entries = append(t.entries, decodePTE(r))
	}
	no := r.Len(maxLTLB)
	for i := 0; i < no; i++ {
		slot := r.Int()
		if r.Err() == nil && (slot < 0 || slot >= n) {
			r.Fail(fmt.Errorf("mem: snapshot LTLB order slot %d outside %d entries", slot, n))
			break
		}
		t.order = append(t.order, slot)
	}
	if r.Err() == nil && n > capacity {
		r.Fail(fmt.Errorf("mem: snapshot LTLB has %d entries, capacity %d", n, capacity))
	}
	t.Hits = r.U64()
	t.Misses = r.U64()
	return t
}

// Adopt replaces t's entries, order, and statistics with src's, keeping
// t's capacity.
func (t *LTLB) Adopt(src *LTLB) {
	t.entries = append(t.entries[:0], src.entries...)
	t.order = append(t.order[:0], src.order...)
	t.Hits = src.Hits
	t.Misses = src.Misses
}

func encodeRequest(w *snap.Writer, q *Request) {
	w.U64(uint64(q.Kind))
	w.U64(q.Addr)
	w.U64(q.Data)
	w.Bool(q.DataPtr)
	w.U64(uint64(q.Pre))
	w.U64(uint64(q.Post))
	w.U64(q.Token)
}

func decodeRequest(r *snap.Reader) Request {
	q := Request{
		Kind:    Kind(r.U64()),
		Addr:    r.U64(),
		Data:    r.U64(),
		DataPtr: r.Bool(),
		Pre:     isa.SyncCond(r.U64()),
		Post:    isa.SyncCond(r.U64()),
		Token:   r.U64(),
	}
	if r.Err() == nil && (q.Kind > ReqWritePhys || q.Pre > isa.SyncEmpty || q.Post > isa.SyncEmpty) {
		r.Fail(fmt.Errorf("mem: bad snapshot request kind=%d pre=%d post=%d", q.Kind, q.Pre, q.Post))
	}
	return q
}

// EncodeState writes the memory system's own timed state (the SDRAM,
// cache, and LTLB follow): in-flight responses in submission order, the
// per-bank and SDRAM busy windows, and the fault counters.
func (m *System) EncodeState(w *snap.Writer) {
	w.Len(len(m.inflight))
	for i := range m.inflight {
		resp := &m.inflight[i]
		encodeRequest(w, &resp.Req)
		w.U64(resp.Data)
		w.Bool(resp.DataPtr)
		w.U64(uint64(resp.Fault))
		w.I64(resp.ReadyAt)
	}
	for _, b := range m.bankFreeAt {
		w.I64(b)
	}
	w.I64(m.sdramFree)
	w.U64(m.LTLBFaults)
	w.U64(m.StatusFaults)
	w.U64(m.SyncFaults)
	m.SDRAM.EncodeState(w)
	m.Cache.EncodeState(w)
	m.LTLB.EncodeState(w)
}

// DecodeSystemState reads a memory system written by EncodeState into a
// new system built from cfg, with no I/O-bus device attached. The earliest-deadline cache is
// recomputed from the decoded in-flight set.
func DecodeSystemState(r *snap.Reader, cfg Config) *System {
	// Not NewSystem: the SDRAM, cache and LTLB are decoded below, and a
	// constructed cache would be a throwaway 2048-line allocation.
	m := &System{cfg: cfg, earliest: NoEvent}
	n := r.Len(maxInflight)
	for i := 0; i < n; i++ {
		resp := Response{
			Req:     decodeRequest(r),
			Data:    r.U64(),
			DataPtr: r.Bool(),
			Fault:   Fault(r.U64()),
			ReadyAt: r.I64(),
		}
		if r.Err() == nil && resp.Fault > FaultSync {
			r.Fail(fmt.Errorf("mem: bad snapshot fault %d", resp.Fault))
			break
		}
		m.inflight = append(m.inflight, resp)
		if resp.ReadyAt < m.earliest {
			m.earliest = resp.ReadyAt
		}
	}
	for i := range m.bankFreeAt {
		m.bankFreeAt[i] = r.I64()
	}
	m.sdramFree = r.I64()
	m.LTLBFaults = r.U64()
	m.StatusFaults = r.U64()
	m.SyncFaults = r.U64()
	m.SDRAM = DecodeSDRAMState(r, cfg.SDRAM)
	m.Cache = DecodeCacheState(r, cfg.Cache)
	m.LTLB = DecodeLTLBState(r, cfg.LTLBEntries)
	return m
}

// PendingResponses exposes the in-flight responses for cross-component
// snapshot validation: chip decode verifies every response has routable
// request metadata before Restore commits anything. Callers must not
// mutate the returned slice.
func (m *System) PendingResponses() []Response { return m.inflight }

// Adopt replaces m's mutable state with src's, keeping the configuration
// and the I/O-bus device attachment. The SDRAM, cache, and LTLB objects
// are adopted in place so pointers held by callers stay valid.
func (m *System) Adopt(src *System) {
	m.inflight = append(m.inflight[:0], src.inflight...)
	m.earliest = src.earliest
	m.bankFreeAt = src.bankFreeAt
	m.sdramFree = src.sdramFree
	m.LTLBFaults = src.LTLBFaults
	m.StatusFaults = src.StatusFaults
	m.SyncFaults = src.SyncFaults
	m.SDRAM.Adopt(src.SDRAM)
	m.Cache.Adopt(src.Cache)
	m.LTLB.Adopt(src.LTLB)
}
