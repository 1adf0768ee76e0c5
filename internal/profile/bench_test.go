package profile

import (
	"fmt"
	"testing"

	"repro/internal/object"
	"repro/internal/trace"
)

// benchEvents builds a steady-state reference batch over n small globals
// with enough alternation that most touches walk the recency queue.
func benchEvents(tbl *object.Table, n, events int) []trace.Event {
	ids := make([]object.ID, n)
	for i := range ids {
		ids[i] = tbl.AddGlobal(fmt.Sprintf("g%d", i), 256)
	}
	evs := make([]trace.Event, events)
	for i := range evs {
		evs[i] = trace.Event{Kind: trace.Load, Obj: ids[(i*7+3)%n], Off: 0, Size: 8}
	}
	return evs
}

// BenchmarkHandleBatch pins the specialized sequential touch path: the
// Kind switch and sampling check are hoisted out of the loop, and steady
// state allocates nothing (b.ReportAllocs makes regressions visible).
func BenchmarkHandleBatch(b *testing.B) {
	tbl := object.NewTable(256)
	p, err := New(smallConfig(), tbl)
	if err != nil {
		b.Fatal(err)
	}
	evs := benchEvents(tbl, 24, 1024)
	p.HandleBatch(evs) // warm: bind nodes, materialize edges
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.HandleBatch(evs)
	}
	b.SetBytes(int64(len(evs)))
}
