package profile

import (
	"repro/internal/object"
	"repro/internal/trace"
)

// Rec is one decoded, enriched trace record for the sweep engine's
// decode-once multi-profile broadcast: the decoder replays the train trace
// once, snapshots the object-table facts each profiler would read, and
// fans the records out to N concurrent profilers. A profiler consuming Recs
// never touches the (single, mutating) decoder-side object table, which is
// what makes the concurrent fan-out safe — and because every snapshotted
// field is fixed at table insertion and objects bind on first appearance,
// a Rec-fed profiler is byte-identical to one driven from the live stream.
type Rec struct {
	Kind trace.Kind
	Obj  object.ID
	Off  int64
	Size int64 // Free recs carry the object size (profilers ignore them)

	// Info is an immutable per-object snapshot of the table entry, taken
	// by the decoder the first time the object appears. Binding reads
	// Category, Name, Size, NaturalAddr, and XORName — all fixed at
	// insertion — so one snapshot per object is enough.
	Info *object.Info

	// NonUnique is set on Alloc recs when more than one live object
	// carried the XOR name at the moment the Alloc was delivered — the
	// fact noteAlloc reads from the live table at the same stream
	// position.
	NonUnique bool
}

// HandleRecs consumes one broadcast batch of enriched records. It is the
// Rec-fed equivalent of the HandleEvent/HandleBatch pair: loads and stores
// feed the recency queue (subject to time sampling), allocs update node
// metadata, frees are ignored.
func (p *Profiler) HandleRecs(recs []Rec) {
	period, window := p.cfg.SamplePeriod, p.cfg.SampleWindow
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case trace.Load, trace.Store:
			p.refs++
			nd := p.nodeForInfo(r.Obj, r.Info)
			p.graph.Node(nd).Refs++
			if period > 0 && p.refs%period >= window {
				continue
			}
			p.touchRange(nd, r.Off, r.Size)
		case trace.Alloc:
			p.noteAllocInfo(r.Obj, r.Info, r.NonUnique)
		}
	}
	p.q.flush(p.cfg.Metrics)
}
