package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		// root [0,100) with children that overlap each other, one that
		// sticks out past the root's end, and a gap between them.
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped at 100
		// a grandchild covers part of a, and does not count against root.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
		// a child nested entirely inside another child's interval.
		{ID: 6, Parent: 1, Name: "e", Start: 32, End: 35},
		// an unfinished span has no self time and covers nothing.
		{ID: 7, Parent: 1, Name: "open", Start: 60, End: -1},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (50 - 10) - (100 - 90), // children cover [10,50) and [90,100)
		2: 30 - 10,
		3: 20,
		4: 30,
		5: 10,
		6: 3,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	if _, ok := self[7]; ok {
		t.Errorf("unfinished span got a self time")
	}

	byName := SelfByName(spans)
	if byName["root"] != 50 || byName["a"] != 20 {
		t.Errorf("SelfByName = %v", byName)
	}
	total := TotalByName(spans)
	if total["root"] != 100 || total["c"] != 30 {
		t.Errorf("TotalByName = %v", total)
	}
}

func TestSelfTimeFullyCovered(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "x", Start: 0, End: 6},
		{ID: 3, Parent: 1, Name: "y", Start: 6, End: 10}, // touches x
	}
	if got := SelfTimes(spans)[1]; got != 0 {
		t.Fatalf("fully covered parent: self %d, want 0", got)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var none *Tracer
	if id := none.Begin("x", "", 0, 1); id != 0 {
		t.Fatalf("nil tracer returned id %d", id)
	}
	none.End(0)

	tr := NewTracer()
	root := tr.Begin("root", "", 0, 7)
	child := tr.BeginAt(time.Now().Add(-time.Millisecond), "child", "l", root, 7)
	tr.End(child)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 7 || spans[1].Label != "l" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Start >= spans[0].Start {
		t.Errorf("BeginAt in the past should start before root: %+v", spans)
	}
	if err := tr.WriteFile(filepath.Join(t.TempDir(), "spans.json")); err != nil {
		t.Fatal(err)
	}
}
