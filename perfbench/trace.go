package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The benchmark records spans from its own files only: each span wraps one
// call into a layer's exported function. Spans stay in memory and are
// written out when the run ends.

// span is one timed call. Parent is 0 for a root; spans of one request
// share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in when the spans are written
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans. A nil tracer records nothing, so untraced code
// paths call the same helpers at the cost of a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span named name for request req under parent (0 for a
// root). It returns nil on a nil tracer.
func (t *tracer) start(name string, req, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	// Reserve the slot so IDs stay dense and children can name it.
	t.spans = append(t.spans, span{ID: id})
	t.mu.Unlock()
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.epoch))}}
}

// end closes the span and returns its duration; 0 on a nil span.
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans[o.s.ID-1] = o.s
	o.t.mu.Unlock()
	return o.s.dur()
}

// id is the span's ID, 0 on a nil span (the parent of a root).
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// timed runs fn inside a span and returns fn's wall time, measured by the
// span when tracing and by the clock otherwise.
func (t *tracer) timed(name string, req, parent int64, fn func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	sp := t.start(name, req, parent)
	fn()
	return sp.end()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (a scatter
// over shards) count their union once; a child reaching outside its parent
// counts only inside it.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, min(c.End, s.End))
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// write dumps every span, with its self time, as one JSON line to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		s.Self = int64(self[s.ID])
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}
