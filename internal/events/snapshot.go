package events

// Checkpoint support (DESIGN.md, "Checkpoint/restore"): EncodeState
// streams the live queue contents and statistics, DecodeQueueState
// rebuilds a queue, and Adopt commits a decoded queue into a live queue in
// place, keeping the live queue's configured capacity.

import (
	"repro/internal/isa"
	"repro/internal/snap"
)

// maxQueueWords bounds decoded queue lengths against corrupt counts.
const maxQueueWords = 1 << 24

// EncodeState writes the queued words (from the head, so the dead prefix
// of the ring is not serialized) and the queue statistics.
func (q *Queue) EncodeState(w *snap.Writer) {
	isa.EncodeWords(w, q.words[q.head:])
	w.U64(q.Enqueued)
	w.U64(q.Dropped)
	w.Int(q.HighWater)
}

// DecodeQueueState reads a queue written by EncodeState, bounded to
// capacity as NewQueue bounds one. Adopt keeps the live queue's own
// capacity.
func DecodeQueueState(r *snap.Reader, capacity int) *Queue {
	q := &Queue{words: isa.DecodeWords(r, maxQueueWords), cap: capacity}
	q.Enqueued = r.U64()
	q.Dropped = r.U64()
	q.HighWater = r.Int()
	return q
}

// Adopt replaces q's contents and statistics with src's, keeping q's
// configured capacity.
func (q *Queue) Adopt(src *Queue) {
	q.words = append(q.words[:0], src.words[src.head:]...)
	q.head = 0
	q.Enqueued = src.Enqueued
	q.Dropped = src.Dropped
	q.HighWater = src.HighWater
}
