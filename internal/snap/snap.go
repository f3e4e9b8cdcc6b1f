// Package snap is the binary codec under the checkpoint/restore subsystem
// (see DESIGN.md, "Checkpoint/restore"): a thin little-endian
// writer/reader pair over io.Writer/io.Reader with sticky error handling,
// so the per-package state encoders read as straight-line field lists
// instead of error-plumbing.
//
// The codec is deliberately primitive — unsigned and signed 64-bit words,
// booleans, length-prefixed byte strings and word slices, and sparse
// fixed-size word arrays — because the snapshot format is defined
// entirely by the call sequence of the encoders in each component
// package. Robustness against corrupt or
// truncated input lives here: every length read is bounded by the caller
// (Len), every primitive read fails cleanly at EOF, and the first error
// sticks, so a decoder can run an entire field list and check Err once.
package snap

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a snapshot-style stream to path with
// crash-dump discipline: the stream is produced into a sibling temporary
// file, synced to stable storage, and renamed into place only if every
// write (and Close) succeeded, so a reader never observes a half-written
// snapshot at path — exactly the property `msim -restore` and forensic
// tooling rely on. The containing directory is fsynced after the rename,
// so once WriteFileAtomic returns the snapshot survives power loss, not
// just process death — the durability msimd's checkpoint spool needs
// before acknowledging a session as suspended. Any failure removes the
// temporary file and reports the first error.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable. An
// empty dir means the path was relative to the working directory.
func syncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Writer serializes primitives to an io.Writer. The first write error
// sticks; subsequent calls are no-ops.
type Writer struct {
	w       io.Writer
	err     error
	buf     [8]byte
	scratch []byte   // reused bulk-transfer buffer (RawU64s)
	stage   []uint64 // reused staging buffer (Stage)
}

// Stage returns a zeroed, reusable word buffer of length n for
// assembling a bulk block that is immediately passed to RawU64s (which
// copies it out before returning). The buffer is invalidated by the next
// Stage call.
func (w *Writer) Stage(n int) []uint64 {
	if cap(w.stage) < n {
		w.stage = make([]uint64, n)
	}
	s := w.stage[:n]
	clear(s)
	return s
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, nil if none.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// U64 writes an unsigned 64-bit word.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.write(w.buf[:])
}

// I64 writes a signed 64-bit word.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as a signed 64-bit word.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a boolean as one byte. The byte goes out through the
// writer's own buffer: a fresh slice would escape through the io.Writer
// and allocate on every call.
func (w *Writer) Bool(v bool) {
	w.buf[0] = 0
	if v {
		w.buf[0] = 1
	}
	w.write(w.buf[:1])
}

// Len writes a slice length (the counterpart of Reader.Len).
func (w *Writer) Len(n int) { w.U64(uint64(n)) }

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.Len(len(p))
	w.write(p)
}

// String writes a length-prefixed string, copying it through the
// reusable bulk buffer so the conversion does not allocate.
func (w *Writer) String(s string) {
	w.Len(len(s))
	if cap(w.scratch) < len(s) {
		w.scratch = make([]byte, len(s))
	}
	w.write(append(w.scratch[:0], s...))
}

// U64s writes a length-prefixed slice of unsigned words in one Write.
func (w *Writer) U64s(vs []uint64) {
	w.Len(len(vs))
	w.RawU64s(vs)
}

// RawU64s writes the words of vs without a length prefix (for fixed-size
// arrays whose length is implied by the format). The staging buffer is
// reused across calls, so bulk sections (SDRAM chunks, register blocks)
// do not allocate per call.
func (w *Writer) RawU64s(vs []uint64) {
	if w.err != nil || len(vs) == 0 {
		return
	}
	if cap(w.scratch) < len(vs)*8 {
		w.scratch = make([]byte, len(vs)*8)
	}
	buf := w.scratch[:len(vs)*8]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	w.write(buf)
}

// Bools writes a length-prefixed boolean slice packed as a bitmask, so a
// register file's scoreboard or a pointer-tag column costs words, not
// bytes-per-bit round trips.
func (w *Writer) Bools(bs []bool) {
	w.Len(len(bs))
	words := w.Stage((len(bs) + 63) / 64)
	for i, b := range bs {
		if b {
			words[i/64] |= 1 << (i % 64)
		}
	}
	w.RawU64s(words)
}

// Mask writes an n-entry boolean slice (n <= 64) whose entry i is bit i
// of bits, in exactly the Bools format, for state kept as a bitmask.
func (w *Writer) Mask(n int, bits uint64) {
	w.Len(n)
	if n > 0 {
		w.U64(bits)
	}
}

// SparseBlock is the granule of Sparse: the number of words one mask bit
// stands for.
const SparseBlock = 64

// sparseBlocks returns how many SparseBlock-word blocks an n-word array
// has (the last one possibly partial) and how many mask words, one bit a
// block, Sparse writes for it.
func sparseBlocks(n int) (blocks, maskWords int) {
	blocks = (n + SparseBlock - 1) / SparseBlock
	return blocks, (blocks + 63) / 64
}

// nextRun returns the first run [b, e) of set mask bits at or after
// block from; b == blocks when there is none.
func nextRun(mask []uint64, from, blocks int) (b, e int) {
	b = from
	for b < blocks && mask[b/64]&(1<<(b%64)) == 0 {
		b++
	}
	e = b
	for e < blocks && mask[e/64]&(1<<(e%64)) != 0 {
		e++
	}
	return b, e
}

// Sparse writes a fixed-size word array (its length is implied by the
// format, as for RawU64s) as a bitmask of its non-zero SparseBlock-word
// blocks followed by only those blocks, so a mostly-zero array — an SDRAM
// chunk a program touched in a few places — costs its mask plus the words
// near its non-zero ones. Runs of adjacent non-zero blocks go out in one
// write.
func (w *Writer) Sparse(vs []uint64) {
	if w.err != nil || len(vs) == 0 {
		return
	}
	blocks, maskWords := sparseBlocks(len(vs))
	mask := w.Stage(maskWords)
	for b := 0; b < blocks; b++ {
		for _, v := range vs[b*SparseBlock : min((b+1)*SparseBlock, len(vs))] {
			if v != 0 {
				mask[b/64] |= 1 << (b % 64)
				break
			}
		}
	}
	w.RawU64s(mask)
	for b, e := nextRun(mask, 0, blocks); b < blocks; b, e = nextRun(mask, e, blocks) {
		w.RawU64s(vs[b*SparseBlock : min(e*SparseBlock, len(vs))])
	}
}

// maxPrealloc caps how many bytes any decode may allocate ahead of the
// data actually arriving from the stream (1 MiB). Larger sections grow in
// chunks as reads succeed, so a corrupt length field costs at most one
// chunk before the truncation is detected — it can never drive a
// multi-gigabyte allocation attempt. Streams whose total size is known
// (Limit) reject oversized lengths before allocating anything.
const maxPrealloc = 1 << 20

// Reader deserializes primitives from an io.Reader. The first error
// (including EOF, reported as an unexpected-EOF decode error) sticks, and
// every subsequent read returns zero values.
type Reader struct {
	r       io.Reader
	err     error
	remain  int64 // bytes left in the stream when known, -1 otherwise
	buf     [8]byte
	scratch []byte   // reused bulk-transfer buffer (RawU64s)
	stage   []uint64 // reused staging buffer (Stage)
	memo    map[string]any
}

// Stage returns a reusable word buffer of length n for receiving a bulk
// block via RawU64s. The buffer is invalidated by the next Stage call;
// contents are unspecified until filled.
func (r *Reader) Stage(n int) []uint64 {
	if cap(r.stage) < n {
		r.stage = make([]uint64, n)
	}
	return r.stage[:n]
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r, remain: -1} }

// Limit declares that at most n more bytes remain in the underlying
// stream. Callers decoding from an in-memory buffer or a file of known
// size should set it: any length field that claims more data than the
// stream can possibly hold then fails descriptively before a single byte
// of it is allocated or read.
func (r *Reader) Limit(n int64) { r.remain = n }

// claim validates that n more bytes of payload are plausible before any
// allocation is sized from a decoded length field.
func (r *Reader) claim(n int64) bool {
	if r.err != nil {
		return false
	}
	if r.remain >= 0 && n > r.remain {
		r.Fail(fmt.Errorf("snap: length %d exceeds the %d bytes remaining in the stream", n, r.remain))
		return false
	}
	return true
}

// Memo returns per-stream scratch space for decoders that share work
// across one stream — e.g. deduplicating identical embedded programs, so
// restoring an n-node machine decodes each handler program once instead
// of n times.
func (r *Reader) Memo() map[string]any {
	if r.memo == nil {
		r.memo = make(map[string]any)
	}
	return r.memo
}

// Err returns the first read error, nil if none.
func (r *Reader) Err() error { return r.err }

// Fail records err (if the reader has not already failed) so decoders can
// surface validation errors through the same sticky channel.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	if r.remain >= 0 && int64(len(p)) > r.remain {
		r.err = fmt.Errorf("snap: truncated input (need %d bytes, %d remain)", len(p), r.remain)
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("snap: truncated input")
		}
		r.err = err
		return false
	}
	if r.remain >= 0 {
		r.remain -= int64(len(p))
	}
	return true
}

// U64 reads an unsigned 64-bit word.
func (r *Reader) U64() uint64 {
	if !r.read(r.buf[:]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:])
}

// I64 reads a signed 64-bit word.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int stored as a signed 64-bit word.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a one-byte boolean.
func (r *Reader) Bool() bool {
	if !r.read(r.buf[:1]) {
		return false
	}
	switch r.buf[0] {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(fmt.Errorf("snap: bad boolean byte %#x", r.buf[0]))
	return false
}

// Len reads a slice length and validates it against max, the caller's
// structural bound; a corrupt count fails cleanly here instead of driving
// a huge allocation or a runaway loop downstream.
func (r *Reader) Len(max int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(max) {
		r.Fail(fmt.Errorf("snap: count %d exceeds bound %d", n, max))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice bounded by max. The
// allocation grows in maxPrealloc chunks as the stream delivers, so a
// corrupt length inside the bound fails at the truncation point instead
// of attempting one huge up-front allocation.
func (r *Reader) Bytes(max int) []byte {
	n := r.Len(max)
	if r.err != nil || n == 0 || !r.claim(int64(n)) {
		return nil
	}
	p := make([]byte, min(n, maxPrealloc))
	if !r.read(p) {
		return nil
	}
	for len(p) < n {
		off := len(p)
		p = append(p, make([]byte, min(n-off, maxPrealloc))...)
		if !r.read(p[off:]) {
			return nil
		}
	}
	return p
}

// String reads a length-prefixed string bounded by max bytes.
func (r *Reader) String(max int) string { return string(r.Bytes(max)) }

// U64s reads a length-prefixed word slice bounded by max entries,
// growing the allocation chunk-wise like Bytes.
func (r *Reader) U64s(max int) []uint64 {
	const chunkWords = maxPrealloc / 8
	n := r.Len(max)
	if r.err != nil || n == 0 || !r.claim(int64(n)*8) {
		return nil
	}
	vs := make([]uint64, min(n, chunkWords))
	r.RawU64s(vs)
	for len(vs) < n && r.err == nil {
		off := len(vs)
		vs = append(vs, make([]uint64, min(n-off, chunkWords))...)
		r.RawU64s(vs[off:])
	}
	if r.err != nil {
		return nil
	}
	return vs
}

// Bools reads a boolean slice written by Writer.Bools, bounded by max
// entries. The backing words stream through the staging buffer one chunk
// at a time, so the pre-read allocation stays capped.
func (r *Reader) Bools(max int) []bool {
	const chunkWords = maxPrealloc / 8
	n := r.Len(max)
	nw := (n + 63) / 64
	if r.err != nil || !r.claim(int64(nw)*8) {
		return nil
	}
	var bs []bool
	for w := 0; w < nw; w += chunkWords {
		words := r.Stage(min(nw-w, chunkWords))
		r.RawU64s(words)
		if r.err != nil {
			return nil
		}
		lim := min(n-w*64, len(words)*64)
		if bs == nil {
			bs = make([]bool, 0, min(n, maxPrealloc))
		}
		for i := 0; i < lim; i++ {
			bs = append(bs, words[i/64]&(1<<(i%64)) != 0)
		}
	}
	return bs
}

// Mask reads a boolean slice written by Writer.Bools or Writer.Mask that
// must hold exactly n entries (n <= 64), returning entry i as bit i. Bits
// past n are dropped, as Bools drops them.
func (r *Reader) Mask(n int) uint64 {
	got := r.Len(64)
	if r.err != nil {
		return 0
	}
	if got != n {
		r.Fail(fmt.Errorf("snap: %d-entry mask where %d entries are expected", got, n))
		return 0
	}
	if n == 0 {
		return 0
	}
	return r.U64() & (1<<n - 1)
}

// Sparse reads an array written by Writer.Sparse into dst, which must be
// the array's length and all zero on entry: blocks absent from the mask
// are left untouched, so decoding into freshly allocated memory writes
// only the blocks the stream carries. A mask bit naming a block past the
// array fails through the sticky error.
func (r *Reader) Sparse(dst []uint64) {
	if r.err != nil || len(dst) == 0 {
		return
	}
	blocks, maskWords := sparseBlocks(len(dst))
	mask := r.Stage(maskWords)
	r.RawU64s(mask)
	if r.err != nil {
		return
	}
	if extra := mask[maskWords-1] >> (blocks % 64); blocks%64 != 0 && extra != 0 {
		r.Fail(fmt.Errorf("snap: sparse mask names block %d of a %d-block array",
			blocks+bits.TrailingZeros64(extra), blocks))
		return
	}
	for b, e := nextRun(mask, 0, blocks); b < blocks && r.err == nil; b, e = nextRun(mask, e, blocks) {
		r.RawU64s(dst[b*SparseBlock : min(e*SparseBlock, len(dst))])
	}
}

// RawU64s fills dst with exactly len(dst) words (no length prefix). The
// staging buffer is reused across calls and never grows past one chunk,
// however large dst is.
func (r *Reader) RawU64s(dst []uint64) {
	const chunkWords = maxPrealloc / 8
	for len(dst) > 0 && r.err == nil {
		c := min(len(dst), chunkWords)
		if cap(r.scratch) < c*8 {
			r.scratch = make([]byte, c*8)
		}
		buf := r.scratch[:c*8]
		if !r.read(buf) {
			return
		}
		for i := 0; i < c; i++ {
			dst[i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
		dst = dst[c:]
	}
}
