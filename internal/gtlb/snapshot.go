package gtlb

// Checkpoint support (DESIGN.md, "Checkpoint/restore") for the global
// destination table and the per-chip GTLB caches: EncodeState streams,
// the DecodeXState functions rebuild detached scratch objects (entries
// are re-validated on the way in), and Adopt commits in place.

import (
	"fmt"

	"repro/internal/snap"
)

// maxEntries bounds decoded entry counts against corrupt input.
const maxEntries = 1 << 16

func encodeEntry(w *snap.Writer, e *Entry) {
	w.U64(e.VirtPage)
	w.U64(e.GroupPages)
	w.Int(e.Start.X)
	w.Int(e.Start.Y)
	w.Int(e.Start.Z)
	for _, l := range e.ExtentLog {
		w.Int(l)
	}
	w.U64(e.PagesPerNode)
}

func decodeEntry(r *snap.Reader) Entry {
	e := Entry{
		VirtPage:   r.U64(),
		GroupPages: r.U64(),
		Start:      NodeID{X: r.Int(), Y: r.Int(), Z: r.Int()},
	}
	for i := range e.ExtentLog {
		e.ExtentLog[i] = r.Int()
	}
	e.PagesPerNode = r.U64()
	if r.Err() == nil {
		if err := e.Validate(); err != nil {
			r.Fail(fmt.Errorf("snapshot entry: %w", err))
		}
	}
	return e
}

// EncodeState writes the GDT's entries in installation order.
func (t *Table) EncodeState(w *snap.Writer) {
	w.Len(len(t.entries))
	for i := range t.entries {
		encodeEntry(w, &t.entries[i])
	}
}

// DecodeTableState reads a GDT written by EncodeState.
func DecodeTableState(r *snap.Reader) *Table {
	t := &Table{}
	n := r.Len(maxEntries)
	for i := 0; i < n; i++ {
		t.entries = append(t.entries, decodeEntry(r))
	}
	return t
}

// Adopt replaces t's entries with src's.
func (t *Table) Adopt(src *Table) {
	t.entries = append(t.entries[:0], src.entries...)
}

// EncodeState writes the GTLB's resident entries in refill order and its
// statistics.
func (g *GTLB) EncodeState(w *snap.Writer) {
	w.Len(len(g.resident))
	for i := range g.resident {
		encodeEntry(w, &g.resident[i])
	}
	w.U64(g.Hits)
	w.U64(g.Misses)
}

// DecodeGTLBState reads a GTLB written by EncodeState, backed by gdt as
// New backs one. Adopt keeps the live cache's own GDT.
func DecodeGTLBState(r *snap.Reader, gdt *Table, capacity int) *GTLB {
	g := &GTLB{gdt: gdt, capacity: capacity}
	n := r.Len(maxEntries)
	for i := 0; i < n; i++ {
		g.resident = append(g.resident, decodeEntry(r))
	}
	if r.Err() == nil && n > capacity {
		r.Fail(fmt.Errorf("gtlb: snapshot has %d resident entries, capacity %d", n, capacity))
	}
	g.Hits = r.U64()
	g.Misses = r.U64()
	return g
}

// Adopt replaces g's resident set and statistics with src's, keeping g's
// backing GDT and capacity.
func (g *GTLB) Adopt(src *GTLB) {
	g.resident = append(g.resident[:0], src.resident...)
	g.Hits = src.Hits
	g.Misses = src.Misses
}
