package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one query
// share Query; Parent is the ID of the span that caused this one (0 for
// a root). Start and End are offsets from the recorder's epoch.
type Span struct {
	ID, Parent, Query int
	Name              string
	Start, End        time.Duration
}

// Dur is the span's wall-clock duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory for the length of one traced run. It is
// safe for concurrent use. A nil *Recorder records nothing, so untraced
// code paths call it unconditionally.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID.
func (r *Recorder) Begin(name string, parent, query int) int {
	return r.BeginAt(name, parent, query, time.Now())
}

// BeginAt opens a span that started at t, such as an open-loop request
// timed from its due time rather than from when it was sent.
func (r *Recorder) BeginAt(name string, parent, query int, t time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Query: query, Name: name, Start: t.Sub(r.epoch), End: -1})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Spans returns a copy of every closed span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover. Overlapping children are counted once, and child
// time outside the parent's interval is ignored.
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.Dur() - covered
}

// byQuery groups spans by query id, then by name, summing durations:
// out[query][name] is the total time query spent in spans of that name.
func byQuery(spans []Span) map[int]map[string]time.Duration {
	out := make(map[int]map[string]time.Duration)
	for _, s := range spans {
		m := out[s.Query]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Query] = m
		}
		m[s.Name] += s.Dur()
	}
	return out
}

// childrenOf indexes spans by parent ID.
func childrenOf(spans []Span) map[int][]Span {
	out := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}
