package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the
// program. Spans are recorded around the benchmark's own calls into
// each layer's public functions; the program itself is not
// instrumented.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for a root span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"` // the job ID or algorithm the span belongs to
	Start  int64  `json:"start_ns"`      // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. The nil Tracer is
// the untraced mode: Start returns 0 and End(0) does nothing, so the
// measured code calls both unconditionally.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// Start opens a span under parent and returns its ID.
func (t *Tracer) Start(parent int, layer, name, key string) int {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Layer: layer, Name: name, Key: key, Start: now})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Adopt appends spans recorded by another tracer (a child process),
// renumbering them and hanging their roots under parent.
func (t *Tracer) Adopt(parent int, spans []Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part of each span's interval that the span's
// children cover. Overlapping children (concurrent calls) are counted
// once.
func selfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Layer] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered returns how many nanoseconds of parent's interval the union
// of the children's intervals covers.
func covered(parent Span, children []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}
