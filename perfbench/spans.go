package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the program.
// Times are nanoseconds since the tracer's epoch; Parent is 0 for a root;
// every span of one request (an experiment, a sweep, a service job)
// carries the same Req.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// Tracer keeps spans in memory until the run writes them out. A nil
// *Tracer records nothing, so untraced code paths pass nil and pay one
// branch per call.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace whose times count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span now and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(name, label string, parent, req int) int {
	return t.BeginAt(time.Now(), name, label, parent, req)
}

// BeginAt opens a span that started at at, which may be in the past: an
// open-loop request's span starts when the request was due.
func (t *Tracer) BeginAt(at time.Time, name, label string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := at.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Label: label, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
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

// WriteFile writes the spans as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.MarshalIndent(struct {
		Epoch string `json:"epoch"`
		Spans []Span `json:"spans"`
	}{t.epoch.UTC().Format(time.RFC3339Nano), t.Spans()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// SelfTimes returns each closed span's self time: its duration minus the
// part of its interval that its children cover. Children may overlap
// each other (parallel work under one parent) and may stick out of the
// parent's interval; each instant of the parent counts as covered at most
// once.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return self
}

// covered measures the union of the children's intervals clipped to
// [lo, hi).
func covered(lo, hi int64, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// SelfByName sums self time per span name.
func SelfByName(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		if d, ok := self[s.ID]; ok {
			out[s.Name] += d
		}
	}
	return out
}

// TotalByName sums the full duration of closed spans per name.
func TotalByName(spans []Span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.End >= 0 {
			out[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return out
}
