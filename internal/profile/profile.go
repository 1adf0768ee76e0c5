// Package profile implements the profiling stage of CCDP: it consumes the
// reference stream once and produces the paper's two profiles (section 3):
//
//   - the Name profile: one record per placement object (id, reference
//     count, size, lifetime), carried on the TRG nodes; and
//   - the TRGplace graph: weighted edges between (object, chunk) pairs,
//     where a weight estimates the cache misses that would occur if the two
//     chunks shared a cache set.
//
// The TRG is built with a recency queue Q of the most recently accessed
// chunks. When chunk c is referenced and found in Q, the edge (c, x) is
// incremented for every entry x ahead of c, because a reference to x
// occurred between two references to c — if they overlapped in a direct-
// mapped cache, c would have missed. Q is capped at queue-threshold total
// bytes (the paper uses twice the cache size): entries that fall off the
// end would have been evicted by capacity anyway, so no relationship is
// recorded for them.
//
// Placement identity: globals, constants, and the stack map to one node per
// object; heap allocations map to one node per XOR call-stack name, because
// that is the unit the custom allocator can steer.
//
// One Profiler builds the TRG, as the paper does: a single recency queue
// over the ordered reference stream. The stream may arrive as events
// (HandleEvent/HandleBatch) or as the sweep engine's enriched records
// (HandleRecs); both produce identical output.
package profile

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/trg"
)

// Config controls profiling granularity.
type Config struct {
	// ChunkSize is the placement granularity in bytes (paper: 256).
	ChunkSize int64
	// QueueThreshold caps the total bytes of chunks in the recency queue
	// (paper: 2x the target cache size).
	QueueThreshold int64
	// PopularityCutoff is the fraction of total popularity covered by the
	// popular set in phase 0 (paper: 0.99).
	PopularityCutoff float64

	// SampleWindow/SamplePeriod enable time-sampled TRG construction,
	// the cost reduction the paper floats in section 5.2 ("alternative
	// techniques for gathering this information such as time sampling"):
	// out of every SamplePeriod references, only the first SampleWindow
	// feed the recency queue. Reference counts and object metadata are
	// always complete. Both zero = profile everything.
	SampleWindow uint64
	SamplePeriod uint64

	// Metrics receives recency-queue and TRG instrumentation (nil =
	// disabled). It is runtime wiring, not a profiling parameter: it does
	// not affect results and is never serialized.
	Metrics *metrics.Collector `json:"-"`
}

// DefaultConfig returns the paper's parameters for a cache of cacheSize
// bytes.
func DefaultConfig(cacheSize int64) Config {
	return Config{
		ChunkSize:        trg.DefaultChunkSize,
		QueueThreshold:   2 * cacheSize,
		PopularityCutoff: 0.99,
	}
}

// Validate rejects unusable parameters.
func (c Config) Validate() error {
	if c.ChunkSize <= 0 {
		return fmt.Errorf("profile: chunk size %d <= 0", c.ChunkSize)
	}
	if c.QueueThreshold < c.ChunkSize {
		return fmt.Errorf("profile: queue threshold %d < chunk size %d", c.QueueThreshold, c.ChunkSize)
	}
	if c.PopularityCutoff <= 0 || c.PopularityCutoff > 1 {
		return fmt.Errorf("profile: popularity cutoff %g outside (0,1]", c.PopularityCutoff)
	}
	if (c.SampleWindow == 0) != (c.SamplePeriod == 0) {
		return fmt.Errorf("profile: sample window and period must be set together")
	}
	if c.SamplePeriod > 0 && c.SampleWindow > c.SamplePeriod {
		return fmt.Errorf("profile: sample window %d exceeds period %d", c.SampleWindow, c.SamplePeriod)
	}
	return nil
}

// Profile is the output of a profiling run.
type Profile struct {
	Config Config
	Graph  *trg.Graph

	// NodeOf maps object IDs from the profiled run to placement nodes.
	// Because workload runs are deterministic, global/constant/stack IDs
	// are identical across runs; heap objects are re-bound by XOR name.
	NodeOf []trg.NodeID

	// HeapNode maps XOR names to their placement node.
	HeapNode map[uint64]trg.NodeID

	// TotalRefs is the number of loads+stores profiled.
	TotalRefs uint64
}

// SizeEstimate approximates the profile's resident bytes — node arena,
// edge table, ID bindings, and heap-name map — for the sweep engine's
// peak-prep accounting. Overheads (string headers, map buckets) are
// approximated; the estimate is deterministic for a given profile.
func (p *Profile) SizeEstimate() int64 {
	const nodeBytes, edgeBytes, heapEntryBytes = 112, 24, 32
	n := int64(p.Graph.NumNodes())*nodeBytes + int64(p.Graph.NumEdges())*edgeBytes
	n += int64(len(p.NodeOf)) * 4
	n += int64(len(p.HeapNode)) * heapEntryBytes
	return n
}

// Node returns the placement node for object id, or trg.NoNode.
func (p *Profile) Node(id object.ID) trg.NodeID {
	if int(id) >= len(p.NodeOf) {
		return trg.NoNode
	}
	return p.NodeOf[id]
}

// Profiler consumes the event stream and builds a Profile. It implements
// trace.Handler and trace.BatchHandler. A run has two halves: the Name
// profile (binding objects to placement nodes, in first-reference order,
// and maintaining node metadata) and the recency queue whose scans build
// the TRG.
type Profiler struct {
	cfg   Config
	objs  *object.Table
	graph *trg.Graph

	nodeOf   []trg.NodeID
	heapNode map[uint64]trg.NodeID
	allocSeq int

	q    recencyQueue
	refs uint64
}

// New creates a profiler over the given object table.
func New(cfg Config, objs *object.Table) (*Profiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Profiler{
		cfg:      cfg,
		objs:     objs,
		graph:    trg.NewGraph(cfg.ChunkSize),
		heapNode: make(map[uint64]trg.NodeID),
	}
	p.q.init(cfg.QueueThreshold)
	return p, nil
}

// nodeFor resolves (creating if needed) the placement node of object id.
func (p *Profiler) nodeFor(id object.ID) trg.NodeID {
	for int(id) >= len(p.nodeOf) {
		p.nodeOf = append(p.nodeOf, trg.NoNode)
	}
	if nd := p.nodeOf[id]; nd != trg.NoNode {
		return nd
	}
	return p.bind(id, p.objs.Get(id))
}

// nodeForInfo is nodeFor against a caller-supplied snapshot of the
// object's table entry, for a profiler fed enriched records (HandleRecs)
// instead of a live table: the decoder's table may have advanced past the
// record being handled, so the record carries the fields binding reads.
// Objects bind on their first appearance and every bound field is fixed
// at table insertion, so the snapshot equals what nodeFor would read.
func (p *Profiler) nodeForInfo(id object.ID, in *object.Info) trg.NodeID {
	for int(id) >= len(p.nodeOf) {
		p.nodeOf = append(p.nodeOf, trg.NoNode)
	}
	if nd := p.nodeOf[id]; nd != trg.NoNode {
		return nd
	}
	return p.bind(id, in)
}

// bind creates the placement node for object id from its table entry.
func (p *Profiler) bind(id object.ID, in *object.Info) trg.NodeID {
	var nd trg.NodeID
	if in.Category == object.Heap {
		nd = p.heapNodeFor(in)
	} else {
		nd = p.graph.AddNode(trg.Node{
			Category: in.Category,
			Name:     in.Name,
			Size:     in.Size,
			Addr:     in.NaturalAddr,
		})
	}
	p.nodeOf[id] = nd
	return nd
}

func (p *Profiler) heapNodeFor(in *object.Info) trg.NodeID {
	if nd, ok := p.heapNode[in.XORName]; ok {
		n := p.graph.Node(nd)
		if in.Size > n.Size {
			n.Size = in.Size
		}
		return nd
	}
	nd := p.graph.AddNode(trg.Node{
		Category:   object.Heap,
		Name:       in.Name,
		Size:       in.Size,
		XORName:    in.XORName,
		AllocOrder: p.allocSeq,
	})
	p.heapNode[in.XORName] = nd
	return nd
}

func (p *Profiler) noteAlloc(id object.ID) {
	in := p.objs.Get(id)
	p.noteAllocInfo(id, in, p.objs.LiveWithXOR(in.XORName) > 1)
}

// noteAllocInfo is noteAlloc with the table reads hoisted to the caller:
// the snapshot Info plus the live-XOR-collision fact as observed when the
// Alloc was delivered (HandleRecs callers capture it at decode time, which
// is the same stream position noteAlloc reads it at).
func (p *Profiler) noteAllocInfo(id object.ID, in *object.Info, nonUnique bool) {
	nd := p.nodeForInfo(id, in)
	n := p.graph.Node(nd)
	n.AllocCount++
	p.allocSeq++
	if nonUnique {
		n.NonUniqueXOR = true
	}
}

// HandleEvent implements trace.Handler.
func (p *Profiler) HandleEvent(ev trace.Event) {
	switch ev.Kind {
	case trace.Load, trace.Store:
		p.refs++
		nd := p.nodeFor(ev.Obj)
		p.graph.Node(nd).Refs++
		if p.cfg.SamplePeriod > 0 && p.refs%p.cfg.SamplePeriod >= p.cfg.SampleWindow {
			// Time sampling: outside the sampling window the TRG queue
			// is left untouched (but metadata above stays complete).
			return
		}
		p.touchRange(nd, ev.Off, ev.Size)
	case trace.Alloc:
		p.noteAlloc(ev.Obj)
	case trace.Free:
		// Lifetime is tracked on the object table by the emitter; the
		// heap placement node survives for future allocations.
	}
}

// HandleBatch implements trace.BatchHandler. The emitter only batches
// loads and stores (allocs and frees flush first and arrive through
// HandleEvent), so the Kind switch is hoisted out entirely, and when time
// sampling is off — the common case — the per-event sampling check and
// reference-counter increment are hoisted too.
func (p *Profiler) HandleBatch(evs []trace.Event) {
	if p.cfg.SamplePeriod == 0 {
		for i := range evs {
			ev := &evs[i]
			nd := p.nodeFor(ev.Obj)
			p.graph.Node(nd).Refs++
			p.touchRange(nd, ev.Off, ev.Size)
		}
		p.refs += uint64(len(evs))
	} else {
		period, window := p.cfg.SamplePeriod, p.cfg.SampleWindow
		refs := p.refs
		for i := range evs {
			ev := &evs[i]
			refs++
			nd := p.nodeFor(ev.Obj)
			p.graph.Node(nd).Refs++
			if refs%period >= window {
				continue
			}
			p.touchRange(nd, ev.Off, ev.Size)
		}
		p.refs = refs
	}
	p.q.flush(p.cfg.Metrics)
}

// touchRange feeds every chunk covered by [off, off+size) through the
// recency queue.
func (p *Profiler) touchRange(nd trg.NodeID, off, size int64) {
	if size <= 0 {
		size = 1
	}
	n := p.graph.Node(nd)
	chunks := rowHint(n.Chunks(p.cfg.ChunkSize))
	first := off / p.cfg.ChunkSize
	last := (off + size - 1) / p.cfg.ChunkSize
	for c := first; c <= last; c++ {
		clen := p.cfg.ChunkSize
		if rem := n.Size - c*p.cfg.ChunkSize; rem < clen {
			clen = rem
		}
		if clen <= 0 {
			clen = 1
		}
		p.q.touch(trg.MakeChunkKey(nd, int(c)), clen, chunks)
	}
}

// Finish sums the queue's half-edges into the symmetric graph, creates
// nodes for declared-but-unreferenced globals and constants (they still
// need placement slots), settles the TRG counters once from the
// symmetrized graph, computes popularity, and returns the completed
// profile.
func (p *Profiler) Finish() *Profile {
	p.q.flush(p.cfg.Metrics)
	p.graph.AddHalves(&p.q.acc)
	p.objs.ForEach(func(in *object.Info) {
		if in.Category == object.Global || in.Category == object.Constant {
			p.nodeFor(in.ID)
		}
	})
	p.cfg.Metrics.Add(metrics.TRGEdges, uint64(p.graph.NumEdges()))
	p.cfg.Metrics.Add(metrics.TRGWeight, p.graph.TotalWeight())
	p.graph.Finalize(p.cfg.PopularityCutoff)
	return &Profile{
		Config:    p.cfg,
		Graph:     p.graph,
		NodeOf:    p.nodeOf,
		HeapNode:  p.heapNode,
		TotalRefs: p.refs,
	}
}
