package main

// In-memory spans for the traced run. The benchmark records a span
// around each call it makes into a layer of the simulator (compile, boot,
// plan step, run phase, fork, save, restore, HTTP request, distributed
// run); spans inside the program are not recorded. A layer's self time
// is its span minus the part its child spans cover. The spans are written
// out once, after the run, as Chrome Trace Event Format JSON.

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int           // index of the parent span, -1 for a root
	Job        int
	Lane       int // client (Chrome thread) that made the call
}

type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// scope is where new spans attach. The zero tracer (nil) records nothing,
// so untraced code paths pay one nil check per call.
type scope struct {
	tr   *tracer
	id   int // enclosing span, -1 at the root
	job  int
	lane int
}

func rootScope(tr *tracer, job, lane int) scope { return scope{tr: tr, id: -1, job: job, lane: lane} }

// begin opens a child span and returns the scope nested in it.
func (s scope) begin(name string) scope {
	if s.tr == nil {
		return s
	}
	now := time.Since(s.tr.epoch)
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, span{Name: name, Start: now, End: -1, Parent: s.id, Job: s.job, Lane: s.lane})
	id := len(s.tr.spans) - 1
	s.tr.mu.Unlock()
	return scope{tr: s.tr, id: id, job: s.job, lane: s.lane}
}

// end closes the span begin opened.
func (s scope) end() {
	if s.tr == nil {
		return
	}
	now := time.Since(s.tr.epoch)
	s.tr.mu.Lock()
	s.tr.spans[s.id].End = now
	s.tr.mu.Unlock()
}

// add records a child span whose bounds were observed rather than
// bracketed, such as a session's queue time read from its event stream.
func (s scope) add(name string, start, end time.Time) {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, span{Name: name, Start: start.Sub(s.tr.epoch), End: end.Sub(s.tr.epoch),
		Parent: s.id, Job: s.job, Lane: s.lane})
	s.tr.mu.Unlock()
}

// layerTimes aggregates spans by name.
type layerTimes struct {
	Count int
	Total time.Duration
	Self  time.Duration
	Durs  []time.Duration `json:"-"`
}

func (t *tracer) layers() map[string]*layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTimes{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layerTimes{}
			out[s.Name] = l
		}
		d := s.End - s.Start
		l.Count++
		l.Total += d
		l.Self += d - child[i]
		l.Durs = append(l.Durs, d)
	}
	return out
}

// medianMS is the median duration of a layer's spans in milliseconds,
// or 0 when the layer recorded none.
func (l *layerTimes) medianMS() float64 {
	if l == nil {
		return 0
	}
	return durMedianMS(l.Durs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// chromeEvent is one complete ("X") event of the Trace Event Format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a Trace Event Format file (viewable at
// ui.perfetto.dev), with meta attached as otherData.
func (t *tracer) writeChrome(path string, meta any) error {
	t.mu.Lock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		cat, _, _ := strings.Cut(s.Name, ".")
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]int{"span": i, "parent": s.Parent, "job": s.Job},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
