package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by benchmark code around a
// public function of that layer. Parent indexes the enclosing span in the
// tracer's list (-1 for a step's root); spans of one step share Step.
type span struct {
	Name       string
	Start, End time.Duration // offsets from the tracer's origin
	Parent     int
	Step       int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so untraced steps call the same code paths at no cost.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span indexes
	step   int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span nested under the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), Parent: parent, Step: t.step})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id (and any spans left open inside it).
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top].End = now
		if top == id {
			return
		}
	}
}

// do times fn as a span named name.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi time.Duration
		for j, iv := range ivs {
			if j == 0 || iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		self[i] = s.dur() - covered
	}
	return self
}

// layerTotal sums, per span name, the call count, total time and total
// self time.
type layerTotal struct {
	Calls       int
	Total, Self time.Duration
}

func totalsByName(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := make(map[string]*layerTotal)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.Calls++
		lt.Total += s.dur()
		lt.Self += self[i]
	}
	return out
}
