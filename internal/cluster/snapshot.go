package cluster

// Checkpoint support (DESIGN.md, "Checkpoint/restore"). Each type follows
// the subsystem's three-part contract: EncodeState streams the complete
// architectural state, DecodeXState rebuilds a detached scratch object
// (all validation happens here, against the snap.Reader's sticky error),
// and Adopt commits a scratch into a live object in place — so restore
// never invalidates pointers other code holds (chips hand out *HThread and
// *RegFile freely) and never half-mutates on a bad snapshot.

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/snap"
)

// Decode bounds: snapshots carry at most these many entries per field, so
// corrupt counts fail cleanly instead of driving huge allocations.
const (
	maxProgWords = 1 << 22
	maxNameLen   = 1 << 10
	maxFaultLen  = 1 << 12
)

// EncodeState writes the register values (packed — see isa.EncodeWords)
// and the scoreboard, in the snap.Writer.Bools format.
func (rf *RegFile) EncodeState(w *snap.Writer) {
	isa.EncodeWords(w, rf.vals[:])
	w.Mask(len(rf.vals), uint64(rf.full))
}

// DecodeRegFileState reads a register file written by EncodeState.
func DecodeRegFileState(r *snap.Reader) *RegFile {
	rf := &RegFile{}
	isa.DecodeWordsInto(r, rf.vals[:])
	rf.full = uint16(r.Mask(len(rf.vals)))
	return rf
}

// Adopt copies src's state into rf in place.
func (rf *RegFile) Adopt(src *RegFile) { *rf = *src }

// EncodeState writes the GCC replica's values and scoreboard bits.
func (g *GCCFile) EncodeState(w *snap.Writer) {
	isa.EncodeWords(w, g.vals[:])
	w.Mask(len(g.vals), uint64(g.full))
}

// DecodeGCCFileState reads a GCC replica written by EncodeState.
func DecodeGCCFileState(r *snap.Reader) *GCCFile {
	g := &GCCFile{}
	isa.DecodeWordsInto(r, g.vals[:])
	g.full = uint8(r.Mask(len(g.vals)))
	return g
}

// Adopt copies src's state into g in place.
func (g *GCCFile) Adopt(src *GCCFile) { *g = *src }

// decodeProgramMemo decodes an embedded program, deduplicating by full
// content within one stream: the runtime installs identical handler
// programs on every node, so an n-node restore decodes each once.
// Programs are immutable after assembly, so sharing the decoded object is
// safe (and Save re-encodes contents, so re-saves stay byte-identical).
func decodeProgramMemo(r *snap.Reader, name string, words []uint64) *isa.Program {
	key := make([]byte, 0, len(name)+1+len(words)*8)
	key = append(key, name...)
	key = append(key, 0)
	for _, w := range words {
		key = append(key,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	memo := r.Memo()
	if p, ok := memo[string(key)].(*isa.Program); ok {
		return p
	}
	p, err := isa.DecodeProgram(name, words)
	if err != nil {
		r.Fail(err)
		return nil
	}
	memo[string(key)] = p
	return p
}

// EncodeState writes the thread's control state, program (in the isa
// binary encoding — label names are an assembler artifact and are not
// preserved), statistics, and register files.
func (h *HThread) EncodeState(w *snap.Writer) {
	w.U64(uint64(h.Status))
	w.Bool(h.Privileged)
	w.Int(h.PC)
	w.String(h.FaultMsg)
	w.U64(h.Issued)
	w.U64(h.OpsIssued)
	w.U64(h.StallCycles)
	if h.Prog != nil {
		w.Bool(true)
		w.String(h.Prog.Name)
		// Encode into the writer's staging buffer (U64s copies it out),
		// so saving a thread does not allocate.
		w.U64s(isa.AppendProgram(w.Stage(isa.ProgramWords(h.Prog))[:0], h.Prog))
	} else {
		w.Bool(false)
	}
	h.Ints.EncodeState(w)
	h.FPs.EncodeState(w)
}

// DecodeHThreadState reads a thread context written by EncodeState.
func DecodeHThreadState(r *snap.Reader) *HThread {
	h := &HThread{
		Status:      ThreadStatus(r.U64()),
		Privileged:  r.Bool(),
		PC:          r.Int(),
		FaultMsg:    r.String(maxFaultLen),
		Issued:      r.U64(),
		OpsIssued:   r.U64(),
		StallCycles: r.U64(),
	}
	if h.Status > ThreadFaulted {
		r.Fail(fmt.Errorf("cluster: bad thread status %d", h.Status))
	}
	if r.Bool() {
		name := r.String(maxNameLen)
		words := r.U64s(maxProgWords)
		if r.Err() == nil {
			h.Prog = decodeProgramMemo(r, name, words)
		}
	}
	h.Ints = DecodeRegFileState(r)
	h.FPs = DecodeRegFileState(r)
	if r.Err() == nil && h.Prog != nil && (h.PC < 0 || h.PC > len(h.Prog.Insts)) {
		r.Fail(fmt.Errorf("cluster: PC %d outside program of %d instructions", h.PC, len(h.Prog.Insts)))
	}
	return h
}

// Adopt copies src's state into h in place, including the program pointer
// (programs are immutable once assembled, so sharing is safe).
func (h *HThread) Adopt(src *HThread) {
	h.Prog = src.Prog
	h.PC = src.PC
	h.Status = src.Status
	h.Privileged = src.Privileged
	h.FaultMsg = src.FaultMsg
	h.Issued = src.Issued
	h.OpsIssued = src.OpsIssued
	h.StallCycles = src.StallCycles
	h.Ints.Adopt(src.Ints)
	h.FPs.Adopt(src.FPs)
}

// EncodeState writes the cluster's round-robin rotation point, GCC
// replica, and all six thread contexts.
func (c *Cluster) EncodeState(w *snap.Writer) {
	w.Int(c.LastIssued)
	c.GCC.EncodeState(w)
	for _, th := range c.Threads {
		th.EncodeState(w)
	}
}

// DecodeClusterState reads a cluster written by EncodeState.
func DecodeClusterState(r *snap.Reader, id int) *Cluster {
	c := &Cluster{ID: id, LastIssued: r.Int()}
	c.GCC = DecodeGCCFileState(r)
	for i := range c.Threads {
		c.Threads[i] = DecodeHThreadState(r)
	}
	if r.Err() == nil && (c.LastIssued < -1 || c.LastIssued >= isa.NumVThreads) {
		r.Fail(fmt.Errorf("cluster: bad rotation point %d", c.LastIssued))
	}
	return c
}

// Adopt copies src's state into c in place.
func (c *Cluster) Adopt(src *Cluster) {
	c.LastIssued = src.LastIssued
	c.GCC.Adopt(src.GCC)
	for i := range c.Threads {
		c.Threads[i].Adopt(src.Threads[i])
	}
}
