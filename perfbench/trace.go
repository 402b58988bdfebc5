package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one request share Req.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Req    string  `json:"req,omitempty"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Worker string  `json:"worker,omitempty"`
	Key    string  `json:"key,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Millisecond)
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, layer string, parent int, req string) int {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Req: req, Name: name, Layer: layer, Start: t.ms(now()), End: -1})
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	at := t.ms(now())
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// add records a complete span and returns its id.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// setParent links a span after the fact, once its parent is known.
func (t *tracer) setParent(id, parent int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Parent = parent
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		out[s.Layer] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
