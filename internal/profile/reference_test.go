package profile

import (
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/trg"
)

// RaceEnabled exports raceEnabled to the external tests, which shrink
// their inputs under the race detector's slowdown.
const RaceEnabled = raceEnabled

// Reference is the straightforward TRG builder the queue-step kernel must
// reproduce byte for byte: a Go map from chunk key to a heap-allocated,
// pointer-linked queue entry, and a symmetric Graph.AddWeight for every
// entry ahead of a hit, counted into the metrics as it happens. Events
// arrive one at a time through HandleEvent. It is exported to the
// package's external tests (oracle_test.go), which drive it over
// recorded traces next to the Profiler. Binding and finishing are the
// Profiler's own, run by a private Profiler whose queue stays empty: only
// the TRG builder is replaced.
type Reference struct {
	cfg Config
	p   *Profiler

	entries    map[trg.ChunkKey]*refEntry
	head, tail *refEntry
	bytes      int64

	// Scans and ScanSteps count the hits that scanned and the entries
	// they walked, for checking the kernel's scan-length histogram.
	Scans, ScanSteps uint64
}

type refEntry struct {
	key        trg.ChunkKey
	size       int64
	prev, next *refEntry
}

// NewReference creates the oracle profiler over the given object table.
func NewReference(cfg Config, objs *object.Table) (*Reference, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The private Profiler reports no metrics: the reference counts its
	// TRG edges as they form, so Finish must not settle them again.
	pcfg := cfg
	pcfg.Metrics = nil
	p, err := New(pcfg, objs)
	if err != nil {
		return nil, err
	}
	return &Reference{cfg: cfg, p: p, entries: make(map[trg.ChunkKey]*refEntry)}, nil
}

// HandleEvent implements trace.Handler.
func (r *Reference) HandleEvent(ev trace.Event) {
	switch ev.Kind {
	case trace.Load, trace.Store:
		r.p.refs++
		nd := r.p.nodeFor(ev.Obj)
		n := r.p.graph.Node(nd)
		n.Refs++
		if r.cfg.SamplePeriod > 0 && r.p.refs%r.cfg.SamplePeriod >= r.cfg.SampleWindow {
			return
		}
		size := ev.Size
		if size <= 0 {
			size = 1
		}
		for c := ev.Off / r.cfg.ChunkSize; c <= (ev.Off+size-1)/r.cfg.ChunkSize; c++ {
			clen := r.cfg.ChunkSize
			if rem := n.Size - c*r.cfg.ChunkSize; rem < clen {
				clen = rem
			}
			if clen <= 0 {
				clen = 1
			}
			r.touch(trg.MakeChunkKey(nd, int(c)), clen)
		}
	case trace.Alloc:
		r.p.noteAlloc(ev.Obj)
	}
}

func (r *Reference) touch(key trg.ChunkKey, size int64) {
	mc := r.cfg.Metrics
	if e := r.entries[key]; e != nil {
		r.Scans++
		for x := r.head; x != e; x = x.next {
			r.ScanSteps++
			if r.p.graph.Weight(key, x.key) == 0 {
				mc.Add(metrics.TRGEdges, 1)
			}
			r.p.graph.AddWeight(key, x.key, 1)
			mc.Add(metrics.TRGWeight, 1)
		}
		r.unlink(e)
		r.pushFront(e)
		return
	}
	e := &refEntry{key: key, size: size}
	r.entries[key] = e
	r.pushFront(e)
	r.bytes += size
	for r.bytes > r.cfg.QueueThreshold && r.tail != r.head {
		v := r.tail
		r.unlink(v)
		delete(r.entries, v.key)
		r.bytes -= v.size
		mc.Add(metrics.QueueEvictions, 1)
	}
}

func (r *Reference) pushFront(e *refEntry) {
	e.prev, e.next = nil, r.head
	if r.head != nil {
		r.head.prev = e
	}
	r.head = e
	if r.tail == nil {
		r.tail = e
	}
}

func (r *Reference) unlink(e *refEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		r.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		r.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Finish completes and returns the profile.
func (r *Reference) Finish() *Profile { return r.p.Finish() }
