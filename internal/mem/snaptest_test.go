package mem

import (
	"bytes"
	"testing"

	"repro/internal/snap"
	"repro/internal/snap/snaptest"
)

// TestLTLBFieldRoundTrip mutates every serializable LTLB field and
// asserts the encoding both sees the change and round-trips it.
func TestLTLBFieldRoundTrip(t *testing.T) {
	lt := NewLTLB(4)
	lt.entries = []PTE{
		{VPN: 3, PPN: 9, Valid: true, Status: [2]uint64{1, 2}},
		{VPN: 4, PPN: 10},
	}
	lt.order = []int{1, 0}
	lt.Hits, lt.Misses = 2, 7
	snaptest.Fields(t, lt, snaptest.Codec[LTLB]{
		Encode: func(lt *LTLB) []byte { return snaptest.Encode(t, lt.EncodeState) },
		Decode: func(data []byte) (*LTLB, error) {
			r := snap.NewReader(bytes.NewReader(data))
			d := DecodeLTLBState(r, 4)
			return d, r.Err()
		},
		Mutate: map[string]func(*LTLB) func(){
			"entries": func(lt *LTLB) func() {
				lt.entries[0].VPN ^= 1
				return func() { lt.entries[0].VPN ^= 1 }
			},
			// Order slots are range-checked at decode; swapping two
			// valid slots stays inside the checked space.
			"order": func(lt *LTLB) func() {
				lt.order[0], lt.order[1] = lt.order[1], lt.order[0]
				return func() { lt.order[0], lt.order[1] = lt.order[1], lt.order[0] }
			},
		},
	})
}

// TestCacheFieldRoundTrip runs the field check over the cache and over
// a valid line, so every line field — pointer tags packed into
// their mask word included — must reach the stream and come back.
func TestCacheFieldRoundTrip(t *testing.T) {
	cfg := CacheConfig{Lines: 4}
	decode := func(data []byte) (*Cache, error) {
		r := snap.NewReader(bytes.NewReader(data))
		d := DecodeCacheState(r, cfg)
		return d, r.Err()
	}
	c := NewCache(cfg)
	c.lines[2] = cacheLine{valid: true, tag: 5, vblock: 22, physBase: 0x40,
		writable: true, words: [BlockWords]uint64{1, 2, 3}, ptrs: [BlockWords]bool{1: true}}
	c.Hits, c.Misses, c.Writebacks = 4, 6, 1
	snaptest.Fields(t, c, snaptest.Codec[Cache]{
		Encode: func(c *Cache) []byte { return snaptest.Encode(t, c.EncodeState) },
		Decode: decode,
		Mutate: map[string]func(*Cache) func(){
			"lines": func(c *Cache) func() {
				c.lines[2].ptrs[7] = true
				return func() { c.lines[2].ptrs[7] = false }
			},
		},
	})

	// The line check encodes the line alone, in slot 2 of a cache of its
	// own.
	lineCache := func(ln *cacheLine) []byte {
		c := NewCache(cfg)
		c.lines[2] = *ln
		return snaptest.Encode(t, c.EncodeState)
	}
	snaptest.Fields(t, &cacheLine{valid: true, tag: 5, vblock: 22, physBase: 0x40,
		words: [BlockWords]uint64{9}, ptrs: [BlockWords]bool{6: true}}, snaptest.Codec[cacheLine]{
		Encode: lineCache,
		Decode: func(data []byte) (*cacheLine, error) {
			d, err := decode(data)
			if err != nil {
				return nil, err
			}
			return &d.lines[2], nil
		},
		Mutate: map[string]func(*cacheLine) func(){
			"words": func(ln *cacheLine) func() {
				ln.words[BlockWords-1] ^= 1 << 63
				return func() { ln.words[BlockWords-1] ^= 1 << 63 }
			},
			"ptrs": func(ln *cacheLine) func() {
				ln.ptrs[0] = !ln.ptrs[0]
				return func() { ln.ptrs[0] = !ln.ptrs[0] }
			},
		},
	})
}

// TestSDRAMFieldRoundTrip runs the field check over the SDRAM; the chunk
// mutation sets a sync bit in a chunk whose data words are all zero,
// which only the sync bitmap's sparse mask can carry.
func TestSDRAMFieldRoundTrip(t *testing.T) {
	cfg := SDRAMConfig{Words: 4 * chunkWords, RowWords: 1024, RowHitLat: 1, RowMissLat: 2}
	s := NewSDRAM(cfg)
	s.Write(5, 0x55, true)
	s.SetSyncBit(3*chunkWords+1, true)
	s.openRow, s.hasOpen, s.RowHits, s.RowMisses = 7, true, 3, 4
	snaptest.Fields(t, s, snaptest.Codec[SDRAM]{
		Encode: func(s *SDRAM) []byte { return snaptest.Encode(t, s.EncodeState) },
		Decode: func(data []byte) (*SDRAM, error) {
			r := snap.NewReader(bytes.NewReader(data))
			d := DecodeSDRAMState(r, cfg)
			return d, r.Err()
		},
		Mutate: map[string]func(*SDRAM) func(){
			"chunks": func(s *SDRAM) func() {
				s.SetSyncBit(3*chunkWords+chunkWords-1, true)
				return func() { s.SetSyncBit(3*chunkWords+chunkWords-1, false) }
			},
		},
	})
}

// TestSDRAMChunkRoundTrip round-trips chunks whose contents sit at the
// sparse codec's edges — a chunk's first or last word, a pointer tag or
// sync bit over an all-zero data word, a materialized chunk holding
// nothing — and checks every word, tag and sync bit of each comes back
// exactly, with the stream carrying only the touched blocks.
func TestSDRAMChunkRoundTrip(t *testing.T) {
	const chunks = 6
	cfg := SDRAMConfig{Words: chunks * chunkWords, RowWords: 1024, RowHitLat: 1, RowMissLat: 2}
	s := NewSDRAM(cfg)
	s.Write(0, 0xfeed, false)                     // chunk 0: first word
	s.Write(2*chunkWords-1, 0xbeef, true)         // chunk 1: last word, tagged
	s.Write(2*chunkWords+64, 0, true)             // chunk 2: pointer tag over a zero word
	s.SetSyncBit(3*chunkWords+chunkWords-1, true) // chunk 3: sync bit over a zero word
	s.Write(4*chunkWords+10, 0, false)            // chunk 4: materialized, all zero
	s.SetSyncBit(5*chunkWords, false)             // chunk 5: clearing never materializes
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	s.EncodeState(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	// The layout, byte for byte: the row state and statistics (three
	// words and a boolean byte) and the chunk count; per materialized
	// chunk its index, the data words' 2-word block mask (128 blocks) and
	// one mask word each for the pointer-tag and sync bitmaps (2 blocks
	// each); then one 64-word block per touched block — chunk 0's first
	// data block, chunk 1's last data block and last tag block, chunk 2's
	// first tag block and chunk 3's last sync block.
	if want := 3*8 + 1 + 8 + 5*(8+2*8+8+8) + 5*64*8; buf.Len() != want {
		t.Errorf("encoded %d bytes, want %d", buf.Len(), want)
	}
	r := snap.NewReader(bytes.NewReader(buf.Bytes()))
	r.Limit(int64(buf.Len()))
	d := DecodeSDRAMState(r, cfg)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range s.chunks {
		if (s.chunks[i] == nil) != (d.chunks[i] == nil) {
			t.Fatalf("chunk %d materialized %v, decoded %v", i, s.chunks[i] != nil, d.chunks[i] != nil)
		}
	}
	for pa := uint64(0); pa < cfg.Words; pa++ {
		w0, p0 := s.Read(pa)
		w1, p1 := d.Read(pa)
		if w0 != w1 || p0 != p1 || s.SyncBit(pa) != d.SyncBit(pa) {
			t.Fatalf("pa %#x: wrote (%#x, ptr %v, sync %v), decoded (%#x, ptr %v, sync %v)",
				pa, w0, p0, s.SyncBit(pa), w1, p1, d.SyncBit(pa))
		}
	}
}
