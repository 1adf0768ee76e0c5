package sim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/heapsim"
	"repro/internal/hierarchy"
	"repro/internal/layout"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/vmpage"
)

// The evaluation kernel: one decode of an event stream is enriched into
// self-contained records and fanned out to groups, each one simulated
// address space that resolves a record to an address once and hands it
// to its member simulators. EvalFrom is one group with one member, a
// Pass one group per layout, a sweep one group per effective layout with
// a member per grid cell.

// rec is one enriched event: everything a group needs, resolved against
// the (mutating) object table at decode time so groups never touch shared
// mutable state. For Load/Store, cat and size describe the access; for
// Alloc, size is the allocation length and xor the object's XOR name; for
// Free, size is the freed object's recorded size.
type rec struct {
	kind trace.Kind
	cat  object.Category
	obj  object.ID
	off  int64
	size int64
	xor  uint64
}

// simulator is the common face of cache.Sim and hierarchy.Sim.
type simulator interface {
	Access(addr addrspace.Addr, size int64, cat object.Category, obj object.ID) int
	Write(addr addrspace.Addr, size int64, cat object.Category, obj object.ID) int
	SetAttribution(a *cache.Attribution)
	Attribution() *cache.Attribution
	PresizeObjects(n int)
}

// Group is one simulated address space shared by its member simulators.
// The zero value is an empty group; add members with NewMember and carve
// the address space with SetLayout before the replay starts.
type Group struct {
	alloc      heapsim.Allocator
	staticAddr []addrspace.Addr
	heapAddr   []addrspace.Addr
	clock      uint64
	pages      *vmpage.Tracker // Table 5's page accounting; nil when off
	members    []simulator
}

// SetLayout carves the group's address space: every static object of
// table (the stream's objects before the replay) is resolved once under
// lay, and alloc places the heap.
func (g *Group) SetLayout(table *object.Table, lay *layout.Layout, alloc heapsim.Allocator) {
	g.alloc = alloc
	g.staticAddr = make([]addrspace.Addr, table.Len())
	table.ForEach(func(in *object.Info) {
		if in.Category != object.Heap {
			g.staticAddr[in.ID] = lay.Addr(in)
		}
	})
}

// Member is one simulator of a group: a single-level *cache.Sim or an
// L1+L2+TLB *hierarchy.Sim.
type Member struct {
	g   *Group
	sim simulator
}

// NewMember adds a simulator for a table of objects objects to g: a
// single-level cache of opts.Cache, or with hcfg an L1+L2+TLB stack.
// opts.Attribution attaches the (L1) miss-attribution sink.
func (g *Group) NewMember(opts Options, hcfg *hierarchy.Config, objects int) (*Member, error) {
	m := &Member{g: g}
	l1 := opts.Cache
	var err error
	if hcfg == nil {
		m.sim, err = cache.New(opts.Cache, opts.Classify)
	} else {
		l1 = hcfg.L1
		m.sim, err = hierarchy.New(*hcfg)
	}
	if err != nil {
		return nil, err
	}
	if opts.Attribution {
		m.sim.SetAttribution(cache.NewAttribution(l1, opts.AttributionPairs))
	}
	m.sim.PresizeObjects(objects)
	g.members = append(g.members, m.sim)
	return m, nil
}

// Result reports the member's outcome under the given layout label after
// the replay: an EvalResult for a single-level member, a HierarchyResult
// for a hierarchy member (the other is nil). Workload and Input are left
// for the caller to label.
func (m *Member) Result(kind LayoutKind, rp *Replay) (*EvalResult, *HierarchyResult) {
	attr := m.sim.Attribution().Stats()
	if hs, ok := m.sim.(*hierarchy.Sim); ok {
		return nil, &HierarchyResult{Layout: kind, Stats: hs.Stats(), Attribution: attr}
	}
	cs := m.sim.(*cache.Sim)
	res := &EvalResult{
		Layout:      kind,
		Stats:       cs.Stats(),
		Counter:     rp.Counter,
		Objects:     rp.Objects,
		Attribution: attr,
		AllocStats:  m.g.alloc.Stats(),
	}
	res.ObjRefs, res.ObjMisses = cs.ObjectStats()
	if p := m.g.pages; p != nil {
		res.TotalPages = p.TotalPages()
		res.WorkingSet = p.WorkingSet()
	}
	return res, nil
}

// process runs one batch through the group: the only place an event
// becomes a simulated address. The clock ticks on Load/Store only; the
// heap address table grows on demand; frees return the recorded size.
func (g *Group) process(recs []rec) {
	for i := range recs {
		r := &recs[i]
		switch r.kind {
		case trace.Load, trace.Store:
			g.clock++
			var base addrspace.Addr
			if r.cat == object.Heap {
				base = g.heapAddr[r.obj]
			} else {
				base = g.staticAddr[r.obj]
			}
			addr := base + addrspace.Addr(r.off)
			if r.kind == trace.Store {
				for _, m := range g.members {
					m.Write(addr, r.size, r.cat, r.obj)
				}
			} else {
				for _, m := range g.members {
					m.Access(addr, r.size, r.cat, r.obj)
				}
			}
			if g.pages != nil {
				g.pages.Touch(addr, r.size)
			}
		case trace.Alloc:
			addr := g.alloc.Alloc(r.size, r.xor, g.clock)
			for int(r.obj) >= len(g.heapAddr) {
				g.heapAddr = append(g.heapAddr, 0)
			}
			g.heapAddr[r.obj] = addr
		case trace.Free:
			g.alloc.Free(g.heapAddr[r.obj], r.size, g.clock)
		}
	}
}

// Replay is the outcome of one group-driven decode: the stream's counter
// and (now complete) object table, the enriched batch and event counts,
// and the time spent producing events (reader and emitter), measured as
// the gaps between enricher callbacks.
type Replay struct {
	Counter     *trace.Counter
	Objects     *object.Table
	Batches     uint64
	Events      uint64
	DecodeNanos int64
}

// RunGroups decodes src once and drives every group with the enriched
// stream. With one worker the groups run inline on the decoding
// goroutine; with more, batches are broadcast (exec.Broadcast) to workers
// that each own a contiguous range of groups, so results are identical
// at any worker count. ctx aborts the replay between batches; onBatch, when
// non-nil, observes each batch boundary with the cumulative counts. Every
// group must have its layout set.
func RunGroups(ctx context.Context, src EventStream, groups []*Group, workers int, onBatch func(batches, events uint64)) (*Replay, error) {
	defer src.Close()
	table := src.Objects()
	workers = max(1, min(workers, len(groups)))
	e := &enricher{
		objs:     table,
		counter:  trace.NewCounter(table),
		ctx:      ctx,
		onBatch:  onBatch,
		lastExit: time.Now(),
	}
	// Worker w owns groups [w*per, min((w+1)*per, n)); recounting the
	// workers from per keeps every range non-empty (5 groups at 4 workers
	// is 3 workers of 2, 2 and 1).
	per := max(1, (len(groups)+workers-1)/workers)
	workers = max(1, (len(groups)+per-1)/per)
	e.out = exec.NewBroadcast(workers, func(w int, recs []rec) {
		for _, g := range groups[w*per : min((w+1)*per, len(groups))] {
			g.process(recs)
		}
	})
	err := src.Drive(e)
	e.flush()
	e.out.Close()
	if err != nil {
		return nil, err
	}
	if e.aborted {
		return nil, fmt.Errorf("sim: replay cancelled: %w", ctx.Err())
	}
	return &Replay{
		Counter:     e.counter,
		Objects:     table,
		Batches:     e.batches,
		Events:      e.events,
		DecodeNanos: e.decodeNanos,
	}, nil
}

// enricher is the decoder-side handler: it tallies the stream counter,
// converts events to recs, and broadcasts full batches.
type enricher struct {
	objs    *object.Table
	counter *trace.Counter
	out     *exec.Broadcast[rec]
	ctx     context.Context
	onBatch func(batches, events uint64)

	// aborted flips when ctx is cancelled mid-replay: enrichment and
	// sending stop so the rest of the decode drains as a no-op (Drive
	// has no abort seam).
	aborted bool

	batches     uint64
	events      uint64
	decodeNanos int64
	lastExit    time.Time
}

func (e *enricher) HandleEvent(ev trace.Event) {
	e.decodeNanos += time.Since(e.lastExit).Nanoseconds()
	e.add(ev)
	e.lastExit = time.Now()
}

func (e *enricher) HandleBatch(evs []trace.Event) {
	e.decodeNanos += time.Since(e.lastExit).Nanoseconds()
	for i := range evs {
		e.add(evs[i])
	}
	e.lastExit = time.Now()
}

func (e *enricher) add(ev trace.Event) {
	if e.aborted {
		return
	}
	e.counter.HandleEvent(ev)
	e.events++
	r := rec{kind: ev.Kind, obj: ev.Obj, off: ev.Off}
	in := e.objs.Get(ev.Obj)
	switch ev.Kind {
	case trace.Load, trace.Store:
		r.cat = in.Category
		r.size = ev.Size
	case trace.Alloc:
		r.size = ev.Size
		r.xor = in.XORName
	case trace.Free:
		r.size = in.Size
	}
	if e.out.Add(r) {
		e.flush()
	}
}

func (e *enricher) flush() {
	if e.aborted || e.out.Len() == 0 {
		return
	}
	if e.ctx.Err() != nil {
		e.aborted = true
		e.out.Discard()
		return
	}
	e.out.Flush()
	e.batches++
	if e.onBatch != nil {
		e.onBatch(e.batches, e.events)
	}
}
