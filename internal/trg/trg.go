// Package trg implements the Temporal Relationship Graph structures at the
// heart of CCDP (paper sections 3.2-3.3).
//
// Two graphs exist during placement:
//
//   - TRGplace: weighted edges between (node, chunk) pairs. The weight of
//     edge (a, b) estimates the number of cache misses that would occur if
//     chunks a and b mapped to the same cache set of a direct-mapped cache.
//     Chunks are 256-byte slices of objects, following the procedure-
//     placement result that large objects must be placed at sub-object
//     granularity.
//
//   - TRGselect: edges between compound nodes (groups of already co-placed
//     objects), formed by coalescing TRGplace edges between popular
//     objects. It determines the order in which compound nodes merge.
//
// Graph nodes are *placement identities*, not raw allocations: every global
// and constant variable is its own node, the stack is one node, and heap
// allocations are folded into one node per XOR name (the unit the custom
// allocator can actually steer).
package trg

import (
	"fmt"
	"sort"

	"repro/internal/addrspace"
	"repro/internal/object"
)

// DefaultChunkSize is the paper's 256-byte placement granularity.
const DefaultChunkSize = 256

// NodeID identifies a placement node densely.
type NodeID int32

// NoNode is the sentinel for "no node".
const NoNode NodeID = -1

// ChunkKey packs a (node, chunk) pair into one map key.
type ChunkKey uint64

// MaxChunkIndex is the largest chunk index a ChunkKey can carry: the
// chunk half of the key is 24 bits, so one node spans at most 2^24
// chunks (4 GiB of object at the default 256-byte granularity).
const MaxChunkIndex = 1<<24 - 1

// MakeChunkKey builds the key for chunk index chunk of node n. Chunk
// indices beyond MaxChunkIndex would silently alias distinct chunks of
// the same node, corrupting edge weights, so the chunking path panics
// with a clear message instead.
func MakeChunkKey(n NodeID, chunk int) ChunkKey {
	if uint(chunk) > MaxChunkIndex {
		panic(fmt.Sprintf("trg: chunk index %d of node %d outside [0, %d]: object too large for the 24-bit chunk key (grow ChunkKey or raise the chunk size)",
			chunk, n, MaxChunkIndex))
	}
	return ChunkKey(uint64(uint32(n))<<24 | uint64(uint32(chunk))&0xffffff)
}

// Node returns the node half of the key.
func (k ChunkKey) Node() NodeID { return NodeID(uint64(k) >> 24) }

// Chunk returns the chunk-index half of the key.
func (k ChunkKey) Chunk() int { return int(uint64(k) & 0xffffff) }

// Node is one placement identity in the graph.
type Node struct {
	ID       NodeID
	Category object.Category
	Name     string
	Size     int64 // max size observed (heap names may vary per call)
	Refs     uint64

	// Popularity is the sum of incident TRGplace edge weights, computed
	// by Finalize. Placement phase 0 splits on it.
	Popularity uint64
	Popular    bool

	// Heap-specific bookkeeping.
	XORName      uint64
	NonUniqueXOR bool // multiple instances were live at once during profiling
	AllocCount   uint64
	AllocOrder   int // sequence number of the first allocation (bin locality)

	// Addr is meaningful for constants (their fixed text address) and
	// records the natural address otherwise.
	Addr addrspace.Addr
}

// Chunks returns how many chunkSize-byte chunks the node spans.
func (n *Node) Chunks(chunkSize int64) int {
	if n.Size <= 0 {
		return 1
	}
	return int((n.Size + chunkSize - 1) / chunkSize)
}

// Graph is the TRGplace graph: nodes plus symmetric weighted edges between
// chunk pairs. Adjacency lives in a flat open-addressing index (see
// flat.go) rather than nested Go maps. The profiler accumulates into
// HalfEdges, which share the flat edge lists, and fills the graph once
// with AddHalves.
type Graph struct {
	ChunkSize int64
	nodes     []Node
	adj       edgeIndex
	totalW    uint64
}

// NewGraph creates an empty graph with the given chunk granularity (0
// selects DefaultChunkSize).
func NewGraph(chunkSize int64) *Graph {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Graph{ChunkSize: chunkSize}
}

// AddNode appends a node and returns its ID. Callers fill the returned
// pointer's metadata.
func (g *Graph) AddNode(n Node) NodeID {
	id := NodeID(len(g.nodes))
	n.ID = id
	g.nodes = append(g.nodes, n)
	return id
}

// NumNodes returns the number of placement nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns a mutable pointer to node id; it is invalidated by AddNode.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// AddWeight increments the symmetric edge (a, b) by w. Self-edges (same
// node and chunk) are ignored: overlapping an object with itself is not a
// placement decision.
func (g *Graph) AddWeight(a, b ChunkKey, w uint64) {
	if a == b || w == 0 {
		return
	}
	g.bump(a, b, w)
	g.bump(b, a, w)
	g.totalW += w
}

// bump adds w to the directed half-edge: one index probe plus an
// inline-array or open-addressing accumulate, no nested map machinery.
func (g *Graph) bump(from, to ChunkKey, w uint64) {
	g.adj.arena[g.adj.getOrCreate(from)].add(to, w)
}

// AddHalves symmetrizes a half-edge accumulator into g in O(half-edges):
// each directed count h(a→b) is added to both halves of the symmetric
// edge (a, b), so w(a, b) ends up as h(a→b) + h(b→a), the sum of the two
// one-sided scans. h is consumed: each list's storage is released once
// it is folded, so the transient peak stays near one copy of the edges,
// and h is left empty.
func (g *Graph) AddHalves(h *HalfEdges) {
	for i := range h.lists {
		e := &h.lists[i].l
		e.forEach(func(to ChunkKey, w uint64) {
			g.bump(e.from, to, w)
			g.bump(to, e.from, w)
			g.totalW += w
		})
		h.lists[i] = HalfList{}
	}
	h.lists = nil
}

// Weight returns the edge weight between chunk pairs a and b (0 if absent).
func (g *Graph) Weight(a, b ChunkKey) uint64 {
	i := g.adj.get(a)
	if i < 0 {
		return 0
	}
	return g.adj.arena[i].weight(b)
}

// Neighbors calls fn for every edge incident to chunk key a.
func (g *Graph) Neighbors(a ChunkKey, fn func(b ChunkKey, w uint64)) {
	if i := g.adj.get(a); i >= 0 {
		g.adj.arena[i].forEach(fn)
	}
}

// TotalWeight returns the sum of all (undirected) edge weights.
func (g *Graph) TotalWeight() uint64 { return g.totalW }

// NumEdges returns the number of undirected chunk-pair edges.
func (g *Graph) NumEdges() int {
	n := 0
	for i := range g.adj.arena {
		n += g.adj.arena[i].degree()
	}
	return n / 2
}

// Finalize computes node popularity (the sum of incident TRGplace edge
// weights) and marks as popular the smallest set of nodes accounting for
// cutoff (e.g. 0.99) of total popularity — phase 0 of the placement
// algorithm. Constants and the stack are always processed during placement
// regardless of the flag, so only Global/Heap nodes are marked.
func (g *Graph) Finalize(cutoff float64) {
	for i := range g.nodes {
		g.nodes[i].Popularity = 0
		g.nodes[i].Popular = false
	}
	for i := range g.adj.arena {
		e := &g.adj.arena[i]
		n := &g.nodes[e.from.Node()]
		e.forEach(func(_ ChunkKey, w uint64) {
			n.Popularity += w
		})
	}
	var total uint64
	order := make([]NodeID, 0, len(g.nodes))
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.Category == object.Global || n.Category == object.Heap {
			order = append(order, n.ID)
			total += n.Popularity
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &g.nodes[order[i]], &g.nodes[order[j]]
		if a.Popularity != b.Popularity {
			return a.Popularity > b.Popularity
		}
		return a.ID < b.ID // deterministic tie-break
	})
	if total == 0 {
		return
	}
	target := uint64(cutoff * float64(total))
	var run uint64
	for _, id := range order {
		if run >= target {
			break
		}
		n := &g.nodes[id]
		if n.Popularity == 0 {
			break
		}
		n.Popular = true
		run += n.Popularity
	}
}

// PopularNodes returns the IDs of popular Global/Heap nodes in descending
// popularity order.
func (g *Graph) PopularNodes() []NodeID {
	var ids []NodeID
	for i := range g.nodes {
		if g.nodes[i].Popular {
			ids = append(ids, g.nodes[i].ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := &g.nodes[ids[i]], &g.nodes[ids[j]]
		if a.Popularity != b.Popularity {
			return a.Popularity > b.Popularity
		}
		return a.ID < b.ID
	})
	return ids
}

// ForEachEdge calls fn once per undirected edge, in deterministic
// (sorted-key) order — the iteration order serialized profiles rely on.
func (g *Graph) ForEachEdge(fn func(a, b ChunkKey, w uint64)) {
	order := make([]int, len(g.adj.arena))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return g.adj.arena[order[i]].from < g.adj.arena[order[j]].from
	})
	var tos []ChunkKey
	for _, i := range order {
		e := &g.adj.arena[i]
		tos = tos[:0]
		e.forEach(func(to ChunkKey, _ uint64) {
			if e.from < to {
				tos = append(tos, to)
			}
		})
		sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
		for _, to := range tos {
			fn(e.from, to, e.weight(to))
		}
	}
}

// NodePair packs an unordered node pair for aggregate weight maps.
type NodePair struct{ A, B NodeID }

// MakeNodePair canonicalises the pair so (a,b) == (b,a).
func MakeNodePair(a, b NodeID) NodePair {
	if a > b {
		a, b = b, a
	}
	return NodePair{A: a, B: b}
}

// NodePairWeights aggregates chunk-level TRGplace weights up to node pairs:
// the total temporal-relationship weight between two placement objects.
// Self pairs (intra-object chunk relationships) are excluded.
func (g *Graph) NodePairWeights() map[NodePair]uint64 {
	out := make(map[NodePair]uint64)
	for i := range g.adj.arena {
		e := &g.adj.arena[i]
		na := e.from.Node()
		e.forEach(func(to ChunkKey, w uint64) {
			if e.from >= to {
				return // adjacency is symmetric; count each edge once
			}
			if nb := to.Node(); nb != na {
				out[MakeNodePair(na, nb)] += w
			}
		})
	}
	return out
}

// String summarises the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("TRG{nodes=%d edges=%d weight=%d chunk=%dB}",
		g.NumNodes(), g.NumEdges(), g.totalW, g.ChunkSize)
}
