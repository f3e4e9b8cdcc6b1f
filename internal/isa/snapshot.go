package isa

// Checkpoint support (DESIGN.md, "Checkpoint/restore"): packed word-slice
// encoding shared by every component that serializes tagged words. A
// slice of Words is written as its length, all Bits in one block, then
// the pointer tags as a bitmask — three bulk transfers instead of two
// tiny reads per word, which is what keeps restore (and Fork) cheap.

import (
	"fmt"

	"repro/internal/snap"
)

// EncodeWords writes ws in the packed block form. Both blocks stage
// through the writer's reusable buffer (RawU64s copies the staged words
// out before returning, so the two uses cannot overlap).
func EncodeWords(w *snap.Writer, ws []Word) {
	w.Len(len(ws))
	bits := w.Stage(len(ws))
	for i := range ws {
		bits[i] = ws[i].Bits
	}
	w.RawU64s(bits)
	ptrs := w.Stage((len(ws) + 63) / 64)
	for i := range ws {
		if ws[i].Ptr {
			ptrs[i/64] |= 1 << (i % 64)
		}
	}
	w.RawU64s(ptrs)
}

// DecodeWords reads a slice written by EncodeWords, bounded by max
// entries.
func DecodeWords(r *snap.Reader, max int) []Word {
	n := r.Len(max)
	if r.Err() != nil || n == 0 {
		return nil
	}
	ws := make([]Word, n)
	if !decodeWordBlocks(r, ws) {
		return nil
	}
	return ws
}

// DecodeWordsInto reads a slice written by EncodeWords into dst, which
// must be exactly the encoded length: fixed-size state (a register file)
// decodes in place, without allocating.
func DecodeWordsInto(r *snap.Reader, dst []Word) {
	n := r.Len(len(dst))
	if r.Err() == nil && n != len(dst) {
		r.Fail(fmt.Errorf("isa: %d encoded words where %d are expected", n, len(dst)))
	}
	if r.Err() == nil {
		decodeWordBlocks(r, dst)
	}
}

// decodeWordBlocks fills ws from the bit and pointer-mask blocks. The bit
// block is copied into ws before the reader's staging buffer is reused
// for the pointer mask.
func decodeWordBlocks(r *snap.Reader, ws []Word) bool {
	n := len(ws)
	bits := r.Stage(n)
	r.RawU64s(bits)
	if r.Err() != nil {
		return false
	}
	for i := range ws {
		ws[i].Bits = bits[i]
	}
	ptrs := r.Stage((n + 63) / 64)
	r.RawU64s(ptrs)
	if r.Err() != nil {
		return false
	}
	for i := range ws {
		ws[i].Ptr = ptrs[i/64]&(1<<(i%64)) != 0
	}
	return true
}
