package snap

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(0xdeadbeefcafe)
	w.I64(-42)
	w.Int(7)
	w.Bool(true)
	w.Bool(false)
	w.String("hello")
	w.Bytes([]byte{1, 2, 3})
	w.U64s([]uint64{9, 8, 7})
	w.RawU64s([]uint64{5, 6})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	if got := r.U64(); got != 0xdeadbeefcafe {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 7 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.String(16); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bytes(16); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.U64s(16); len(got) != 3 || got[0] != 9 || got[2] != 7 {
		t.Errorf("U64s = %v", got)
	}
	raw := make([]uint64, 2)
	r.RawU64s(raw)
	if raw[0] != 5 || raw[1] != 6 {
		t.Errorf("RawU64s = %v", raw)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1)
	w.String("payload")
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		r.U64()
		r.String(64)
		if err := r.Err(); err == nil {
			t.Fatalf("truncation at %d of %d went undetected", cut, len(full))
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation at %d: unexpected error %v", cut, err)
		}
	}
}

func TestBoundsAndStickiness(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Len(1 << 40) // absurd count
	w.U64(123)
	r := NewReader(&buf)
	if n := r.Len(1000); n != 0 || r.Err() == nil {
		t.Fatalf("oversized count accepted: n=%d err=%v", n, r.Err())
	}
	first := r.Err()
	// Sticky: later reads keep the first error and return zero values.
	if got := r.U64(); got != 0 || r.Err() != first {
		t.Errorf("error did not stick: got %d, err %v", got, r.Err())
	}

	// Bad boolean byte.
	r2 := NewReader(bytes.NewReader([]byte{7}))
	r2.Bool()
	if r2.Err() == nil || !strings.Contains(r2.Err().Error(), "boolean") {
		t.Errorf("bad boolean byte: err %v", r2.Err())
	}
}

// TestOversizedLengthCapped pins the capped-allocation contract: a
// corrupt length field that passes the caller's structural bound must
// fail descriptively after at most one chunk of reading — it must never
// size an allocation from the corrupt count up front.
func TestOversizedLengthCapped(t *testing.T) {
	// A stream claiming a ~1 GiB payload that isn't there. With a known
	// remaining length the claim is rejected before any read.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Len(1 << 30)
	w.U64(0x1234)
	stream := buf.Bytes()

	r := NewReader(bytes.NewReader(stream))
	r.Limit(int64(len(stream)))
	if got := r.Bytes(1 << 31); got != nil || r.Err() == nil {
		t.Fatalf("limited reader: oversized Bytes accepted: %v, err %v", len(got), r.Err())
	}
	if !strings.Contains(r.Err().Error(), "remaining") {
		t.Errorf("limited reader error not descriptive: %v", r.Err())
	}

	// Without a known size, the chunked growth path detects truncation
	// after at most maxPrealloc bytes.
	for _, decode := range map[string]func(*Reader){
		"Bytes": func(r *Reader) { r.Bytes(1 << 31) },
		"U64s":  func(r *Reader) { r.U64s(1 << 31) },
		"Bools": func(r *Reader) { r.Bools(1 << 31) },
	} {
		r := NewReader(bytes.NewReader(stream))
		decode(r)
		if r.Err() == nil || !strings.Contains(r.Err().Error(), "truncated") {
			t.Errorf("unlimited reader: oversized length: err %v", r.Err())
		}
	}
}

// TestLargeSliceRoundTrip exercises the multi-chunk paths (payloads
// larger than maxPrealloc) end to end.
func TestLargeSliceRoundTrip(t *testing.T) {
	const words = maxPrealloc/8 + 1000 // spills into a second chunk
	vs := make([]uint64, words)
	for i := range vs {
		vs[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	bs := make([]bool, 3*64*1024)
	for i := range bs {
		bs[i] = i%3 == 0
	}
	p := make([]byte, maxPrealloc+4096)
	for i := range p {
		p[i] = byte(i)
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64s(vs)
	w.Bools(bs)
	w.Bytes(p)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Limit(int64(buf.Len()))
	gotVs := r.U64s(words)
	gotBs := r.Bools(len(bs))
	gotP := r.Bytes(len(p))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if gotVs[i] != vs[i] {
			t.Fatalf("U64s[%d] = %#x, want %#x", i, gotVs[i], vs[i])
		}
	}
	for i := range bs {
		if gotBs[i] != bs[i] {
			t.Fatalf("Bools[%d] = %v, want %v", i, gotBs[i], bs[i])
		}
	}
	if !bytes.Equal(gotP, p) {
		t.Fatal("Bytes multi-chunk round trip mismatch")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")

	// A failing producer must leave nothing behind — not the target, not
	// the temporary.
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatalf("failing write: err = %v, want %v", err, boom)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed write left %s behind (stat err %v)", path, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed write left %d stray files (first: %s)", len(ents), ents[0].Name())
	}

	// A successful write replaces any prior content in one step and the
	// temporary is gone.
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new contents"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new contents" {
		t.Fatalf("read back %q", got)
	}
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("successful write left %d files in dir, want 1", len(ents))
	}

	// Relative path: the directory component is empty, syncDir falls back
	// to ".".
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	err = WriteFileAtomic("rel.ckpt", func(w io.Writer) error {
		_, err := w.Write([]byte("rel"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile("rel.ckpt"); err != nil || string(got) != "rel" {
		t.Fatalf("relative write: %q, %v", got, err)
	}
}

// TestWriterPrimitivesNoAllocs pins the per-call allocation budget of the
// scalar writers every Save and Digest runs thousands of times: a byte
// slice handed to the io.Writer escapes, so each primitive must write
// from the Writer's own buffers.
func TestWriterPrimitivesNoAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	w.String("warm up the bulk buffer")
	sparse := make([]uint64, 8192) // an SDRAM chunk's data words
	sparse[0], sparse[100], sparse[101], sparse[8191] = 1, 2, 3, 4
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Bool", func() { w.Bool(true) }},
		{"U64", func() { w.U64(42) }},
		{"String", func() { w.String("thread") }},
		{"Mask", func() { w.Mask(16, 0xbeef) }},
		{"Sparse", func() { w.Sparse(sparse) }},
	} {
		if avg := testing.AllocsPerRun(100, c.f); avg != 0 {
			t.Errorf("Writer.%s allocates %.1f objects per call, want 0", c.name, avg)
		}
	}
}

// TestMaskMatchesBools pins Mask as a drop-in for Bools: the same bytes
// on the wire, read back by either reader, with bits past n dropped.
func TestMaskMatchesBools(t *testing.T) {
	for _, n := range []int{0, 1, 8, 16, 63, 64} {
		bools := make([]bool, n)
		var bits uint64
		for i := range bools {
			if i%3 != 1 {
				bools[i] = true
				bits |= 1 << i
			}
		}
		var a, b bytes.Buffer
		NewWriter(&a).Bools(bools)
		NewWriter(&b).Mask(n, bits)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("n=%d: Mask wrote %x, Bools wrote %x", n, b.Bytes(), a.Bytes())
		}
		r := NewReader(bytes.NewReader(a.Bytes()))
		if got := r.Mask(n); got != bits || r.Err() != nil {
			t.Errorf("n=%d: Mask read %#x (%v), want %#x", n, got, r.Err(), bits)
		}
	}
	// Entries past n are ignored, as Bools ignores them.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Len(4)
	w.U64(0xff)
	if got := NewReader(&buf).Mask(4); got != 0xf {
		t.Errorf("Mask kept bits past n: %#x", got)
	}
	// A count other than the expected one fails.
	buf.Reset()
	NewWriter(&buf).Mask(8, 1)
	r := NewReader(&buf)
	r.Mask(16)
	if r.Err() == nil {
		t.Error("Mask accepted an 8-entry slice where 16 entries are expected")
	}
}

// sparseCases are Sparse inputs at the block boundaries: every length
// class (one partial block, exact blocks, a partial last block, more
// than 64 blocks so the mask spans two words) crossed with the patterns
// that stress the mask — nothing set, only the first or last word, a
// pair straddling a block edge, and everything set.
func sparseCases() map[string][]uint64 {
	cases := map[string][]uint64{}
	for _, n := range []int{1, 63, 64, 65, 128, 200, 64*64 + 1, 8192} {
		mk := func(set ...int) []uint64 {
			vs := make([]uint64, n)
			for _, i := range set {
				vs[i] = uint64(i)<<8 | 0xa5
			}
			return vs
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		cases[fmt.Sprintf("n%d/zero", n)] = mk()
		cases[fmt.Sprintf("n%d/first", n)] = mk(0)
		cases[fmt.Sprintf("n%d/last", n)] = mk(n - 1)
		cases[fmt.Sprintf("n%d/all", n)] = mk(all...)
		if n > SparseBlock {
			cases[fmt.Sprintf("n%d/edge", n)] = mk(SparseBlock-1, SparseBlock)
		}
	}
	return cases
}

// TestSparseRoundTrip pins Sparse's wire size (the mask plus exactly the
// non-zero blocks) and its round trip, including that the reader stops
// at the end of the array and leaves absent blocks untouched.
func TestSparseRoundTrip(t *testing.T) {
	for name, vs := range sparseCases() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			w.Sparse(vs)
			w.U64(0x5e17)
			if err := w.Err(); err != nil {
				t.Fatal(err)
			}
			_, want := sparseBlocks(len(vs))
			for b := 0; b*SparseBlock < len(vs); b++ {
				blk := vs[b*SparseBlock : min((b+1)*SparseBlock, len(vs))]
				for _, v := range blk {
					if v != 0 {
						want += len(blk)
						break
					}
				}
			}
			if got := buf.Len()/8 - 1; got != want {
				t.Errorf("Sparse wrote %d words, want %d", got, want)
			}

			const untouched = 0xdead
			got := make([]uint64, len(vs))
			for i := range got {
				if vs[i] == 0 {
					got[i] = untouched
				}
			}
			r := NewReader(bytes.NewReader(buf.Bytes()))
			r.Limit(int64(buf.Len()))
			r.Sparse(got)
			if s := r.U64(); s != 0x5e17 || r.Err() != nil {
				t.Fatalf("after Sparse: sentinel %#x, err %v", s, r.Err())
			}
			for i := range vs {
				block := vs[i/SparseBlock*SparseBlock : min((i/SparseBlock+1)*SparseBlock, len(vs))]
				present := false
				for _, v := range block {
					present = present || v != 0
				}
				want := vs[i]
				if !present {
					want = untouched
				}
				if got[i] != want {
					t.Fatalf("word %d = %#x, want %#x", i, got[i], want)
				}
			}
		})
	}
}

// TestSparseMaskPastArray pins that a mask bit naming a block the array
// does not have fails through the sticky error instead of indexing past
// dst.
func TestSparseMaskPastArray(t *testing.T) {
	for _, c := range []struct {
		n     int      // array length
		mask  []uint64 // mask words
		legal bool     // the mask names only blocks the array has
	}{
		{n: 100, mask: []uint64{1 << 2}},                   // 2 blocks, bit 2 set
		{n: 1, mask: []uint64{1<<1 | 1}},                   // 1 block, bit 1 set
		{n: 65 * 64, mask: []uint64{0, 1 << 1}},            // 65 blocks, bit 65 set
		{n: 65 * 64, mask: []uint64{0, 1 << 63}},           // 65 blocks, bit 127 set
		{n: 64 * 64, mask: []uint64{1 << 63}, legal: true}, // 64 blocks: bit 63 is the last one
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.RawU64s(c.mask)
		w.RawU64s(make([]uint64, c.n)) // enough payload for any block
		r := NewReader(bytes.NewReader(buf.Bytes()))
		r.Sparse(make([]uint64, c.n))
		switch {
		case c.legal && r.Err() != nil:
			t.Errorf("n=%d mask %#x: %v", c.n, c.mask, r.Err())
		case !c.legal && (r.Err() == nil || !strings.Contains(r.Err().Error(), "sparse mask names block")):
			t.Errorf("n=%d mask %#x: err %v, want a bad-mask error", c.n, c.mask, r.Err())
		}
	}
}

// TestSparseTruncatedBlock cuts a Sparse stream at every byte: each cut
// must fail as truncated, whether or not the reader knows the stream
// size.
func TestSparseTruncatedBlock(t *testing.T) {
	vs := make([]uint64, 300)
	vs[5], vs[64], vs[299] = 1, 2, 3
	var buf bytes.Buffer
	NewWriter(&buf).Sparse(vs)
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		for _, limited := range []bool{false, true} {
			r := NewReader(bytes.NewReader(full[:cut]))
			if limited {
				r.Limit(int64(cut))
			}
			r.Sparse(make([]uint64, len(vs)))
			if r.Err() == nil || !strings.Contains(r.Err().Error(), "truncated") {
				t.Fatalf("cut at %d of %d (limited %v): err %v", cut, len(full), limited, r.Err())
			}
		}
	}
}
