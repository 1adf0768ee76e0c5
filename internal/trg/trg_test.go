package trg

import (
	"testing"
	"testing/quick"

	"repro/internal/object"
)

func TestChunkKeyRoundTrip(t *testing.T) {
	if err := quick.Check(func(n uint16, c uint16) bool {
		k := MakeChunkKey(NodeID(n), int(c))
		return k.Node() == NodeID(n) && k.Chunk() == int(c)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddWeightSymmetric(t *testing.T) {
	g := NewGraph(256)
	a := MakeChunkKey(1, 0)
	b := MakeChunkKey(2, 3)
	g.AddWeight(a, b, 5)
	g.AddWeight(b, a, 2)
	if g.Weight(a, b) != 7 || g.Weight(b, a) != 7 {
		t.Fatalf("weights %d/%d, want 7/7", g.Weight(a, b), g.Weight(b, a))
	}
	if g.TotalWeight() != 7 {
		t.Fatalf("total %d, want 7", g.TotalWeight())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges %d, want 1", g.NumEdges())
	}
}

func TestAddWeightIgnoresSelf(t *testing.T) {
	g := NewGraph(256)
	a := MakeChunkKey(1, 0)
	g.AddWeight(a, a, 5)
	if g.TotalWeight() != 0 {
		t.Fatal("self edge recorded")
	}
}

func TestNodeChunks(t *testing.T) {
	n := Node{Size: 700}
	if got := n.Chunks(256); got != 3 {
		t.Fatalf("chunks(700/256) = %d, want 3", got)
	}
	n.Size = 0
	if got := n.Chunks(256); got != 1 {
		t.Fatalf("chunks(0) = %d, want 1", got)
	}
	n.Size = 256
	if got := n.Chunks(256); got != 1 {
		t.Fatalf("chunks(256) = %d, want 1", got)
	}
}

func TestFinalizePopularity(t *testing.T) {
	g := NewGraph(256)
	hot := g.AddNode(Node{Category: object.Global, Name: "hot", Size: 64})
	warm := g.AddNode(Node{Category: object.Global, Name: "warm", Size: 64})
	cold := g.AddNode(Node{Category: object.Global, Name: "cold", Size: 64})
	other := g.AddNode(Node{Category: object.Global, Name: "other", Size: 64})

	g.AddWeight(MakeChunkKey(hot, 0), MakeChunkKey(other, 0), 1000)
	g.AddWeight(MakeChunkKey(warm, 0), MakeChunkKey(other, 0), 500)
	g.AddWeight(MakeChunkKey(cold, 0), MakeChunkKey(other, 0), 1)

	g.Finalize(0.9)
	if !g.Node(hot).Popular {
		t.Error("hot node should be popular")
	}
	if g.Node(cold).Popular {
		t.Error("cold node should be unpopular at 90% cutoff")
	}
	if g.Node(hot).Popularity != 1000 {
		t.Errorf("hot popularity %d, want 1000", g.Node(hot).Popularity)
	}
}

func TestFinalizeExcludesStackAndConstants(t *testing.T) {
	g := NewGraph(256)
	st := g.AddNode(Node{Category: object.Stack, Size: 1024})
	cn := g.AddNode(Node{Category: object.Constant, Size: 64})
	gl := g.AddNode(Node{Category: object.Global, Size: 64})
	g.AddWeight(MakeChunkKey(st, 0), MakeChunkKey(gl, 0), 100)
	g.AddWeight(MakeChunkKey(cn, 0), MakeChunkKey(gl, 0), 100)
	g.Finalize(0.99)
	if g.Node(st).Popular || g.Node(cn).Popular {
		t.Error("stack/constants must not be marked popular (they are always placed)")
	}
	if !g.Node(gl).Popular {
		t.Error("global with weight should be popular")
	}
}

func TestPopularNodesSorted(t *testing.T) {
	g := NewGraph(256)
	a := g.AddNode(Node{Category: object.Global, Size: 8})
	b := g.AddNode(Node{Category: object.Global, Size: 8})
	sink := g.AddNode(Node{Category: object.Global, Size: 8})
	g.AddWeight(MakeChunkKey(a, 0), MakeChunkKey(sink, 0), 10)
	g.AddWeight(MakeChunkKey(b, 0), MakeChunkKey(sink, 0), 90)
	g.Finalize(1.0)
	pop := g.PopularNodes()
	// sink aggregates both edges (popularity 100), then b (90), then a (10).
	if len(pop) != 3 || pop[0] != sink || pop[1] != b || pop[2] != a {
		t.Fatalf("popular order %v, want [%v %v %v]", pop, sink, b, a)
	}
}

func TestNodePairWeights(t *testing.T) {
	g := NewGraph(256)
	a := g.AddNode(Node{Category: object.Global, Size: 1024})
	b := g.AddNode(Node{Category: object.Global, Size: 1024})
	// Two chunk-level edges between the same node pair must aggregate.
	g.AddWeight(MakeChunkKey(a, 0), MakeChunkKey(b, 0), 5)
	g.AddWeight(MakeChunkKey(a, 1), MakeChunkKey(b, 2), 7)
	// Intra-node edge must be excluded.
	g.AddWeight(MakeChunkKey(a, 0), MakeChunkKey(a, 3), 100)

	pw := g.NodePairWeights()
	if got := pw[MakeNodePair(a, b)]; got != 12 {
		t.Fatalf("pair weight %d, want 12", got)
	}
	if len(pw) != 1 {
		t.Fatalf("%d pairs, want 1", len(pw))
	}
}

func TestMakeNodePairCanonical(t *testing.T) {
	if MakeNodePair(3, 1) != MakeNodePair(1, 3) {
		t.Fatal("node pair not canonical")
	}
}

func TestCompoundShiftAndExtent(t *testing.T) {
	g := NewGraph(256)
	a := g.AddNode(Node{Category: object.Global, Size: 100})
	b := g.AddNode(Node{Category: object.Global, Size: 50})
	ca := NewCompound(0, a)
	cb := NewCompound(1, b)
	cb.Shift(100, 0)
	ca.Absorb(cb)
	if got := ca.Extent(g); got != 150 {
		t.Fatalf("extent %d, want 150", got)
	}
	ca.Shift(8100, 8192)
	// Offsets wrap mod 8192: a at 8100, b at (100+8100)%8192 = 8200-8192 = 8.
	if ca.Members[0].Offset != 8100 || ca.Members[1].Offset != 8 {
		t.Fatalf("offsets after wrap: %+v", ca.Members)
	}
}

func TestCompoundShiftNegative(t *testing.T) {
	g := NewGraph(256)
	a := g.AddNode(Node{Category: object.Global, Size: 10})
	c := NewCompound(0, a)
	c.Shift(-100, 8192)
	if c.Members[0].Offset != 8092 {
		t.Fatalf("negative shift wrapped to %d, want 8092", c.Members[0].Offset)
	}
}

func TestCacheImageAddChunk(t *testing.T) {
	ci := NewCacheImage(256, 32)
	k := MakeChunkKey(1, 0)
	ci.AddChunkAt(k, 0, 256) // covers lines 0..7
	occupied := 0
	for i, l := range ci.Lines {
		if len(l) > 0 {
			occupied++
			if i >= 8 {
				t.Fatalf("line %d occupied, want only 0..7", i)
			}
		}
	}
	if occupied != 8 {
		t.Fatalf("%d lines occupied, want 8", occupied)
	}
}

func TestCacheImageWraps(t *testing.T) {
	ci := NewCacheImage(256, 32)
	// Start near the end of the cache: must wrap to line 0.
	ci.AddChunkAt(MakeChunkKey(1, 0), 255*32, 64)
	if len(ci.Lines[255]) != 1 || len(ci.Lines[0]) != 1 {
		t.Fatal("chunk did not wrap around the cache")
	}
}

func TestCacheImageWholeCacheChunk(t *testing.T) {
	ci := NewCacheImage(16, 32)
	ci.AddChunkAt(MakeChunkKey(1, 0), 0, 16*32+5)
	for i, l := range ci.Lines {
		if len(l) != 1 {
			t.Fatalf("line %d not covered by whole-cache chunk", i)
		}
	}
}

func TestCacheImageSelfCost(t *testing.T) {
	g := NewGraph(256)
	a := g.AddNode(Node{Category: object.Global, Size: 32})
	b := g.AddNode(Node{Category: object.Global, Size: 32})
	ka, kb := MakeChunkKey(a, 0), MakeChunkKey(b, 0)
	g.AddWeight(ka, kb, 11)

	ci := NewCacheImage(256, 32)
	ci.AddNode(g, a, 0)
	ci.AddNode(g, b, 8192) // same line as a (mod 8192)
	if got := ci.SelfCost(g); got != 11 {
		t.Fatalf("self cost %d, want 11", got)
	}

	ci2 := NewCacheImage(256, 32)
	ci2.AddNode(g, a, 0)
	ci2.AddNode(g, b, 32) // adjacent line: no conflict
	if got := ci2.SelfCost(g); got != 0 {
		t.Fatalf("self cost %d, want 0", got)
	}
}

func TestCacheImageCostAgainst(t *testing.T) {
	g := NewGraph(256)
	a := g.AddNode(Node{Category: object.Global, Size: 32})
	b := g.AddNode(Node{Category: object.Global, Size: 32})
	g.AddWeight(MakeChunkKey(a, 0), MakeChunkKey(b, 0), 4)

	c1 := NewCacheImage(256, 32)
	c1.AddNode(g, a, 0)
	c2 := NewCacheImage(256, 32)
	c2.AddNode(g, b, 0)
	if got := c1.CostAgainst(g, 0, c2, 0); got != 4 {
		t.Fatalf("cost %d, want 4", got)
	}
	if got := c1.CostAgainst(g, 1, c2, 0); got != 0 {
		t.Fatalf("cost of empty line %d, want 0", got)
	}
}

func TestCacheImageClearRetainsGeometry(t *testing.T) {
	ci := NewCacheImage(16, 32)
	ci.AddChunkAt(MakeChunkKey(1, 0), 0, 32)
	ci.Clear()
	if ci.Occupancy() != 0 {
		t.Fatal("clear left occupants")
	}
	if ci.NumLines() != 16 {
		t.Fatal("clear changed geometry")
	}
}

func TestSelectGraphMaxEdge(t *testing.T) {
	s := NewSelectGraph()
	for _, id := range []int{1, 2, 3} {
		s.AddCompound(id)
	}
	s.AddWeight(1, 2, 10)
	s.AddWeight(2, 3, 30)
	s.AddWeight(1, 3, 20)

	a, b, w, ok := s.MaxEdge()
	if !ok || w != 30 || a != 2 || b != 3 {
		t.Fatalf("max edge (%d,%d,%d,%v), want (2,3,30,true)", a, b, w, ok)
	}
}

func TestSelectGraphMergeCoalesces(t *testing.T) {
	s := NewSelectGraph()
	for _, id := range []int{1, 2, 3} {
		s.AddCompound(id)
	}
	s.AddWeight(1, 2, 10)
	s.AddWeight(1, 3, 5)
	s.AddWeight(2, 3, 7)

	// Merge 2 into 1: edge (1,3) should become 5+7=12.
	s.Merge(1, 2)
	if got := s.Weight(1, 3); got != 12 {
		t.Fatalf("coalesced weight %d, want 12", got)
	}
	a, b, w, ok := s.MaxEdge()
	if !ok || w != 12 || a != 1 || b != 3 {
		t.Fatalf("after merge, max edge (%d,%d,%d,%v)", a, b, w, ok)
	}
	// Exhaust: merging the last edge leaves nothing.
	s.Merge(1, 3)
	if _, _, _, ok := s.MaxEdge(); ok {
		t.Fatal("edges remain after full merge")
	}
}

func TestSelectGraphAccumulates(t *testing.T) {
	s := NewSelectGraph()
	s.AddCompound(1)
	s.AddCompound(2)
	s.AddWeight(1, 2, 10)
	s.AddWeight(1, 2, 15)
	if got := s.Weight(1, 2); got != 25 {
		t.Fatalf("weight %d, want 25", got)
	}
	// The stale heap entry (weight 10) must be discarded lazily.
	_, _, w, ok := s.MaxEdge()
	if !ok || w != 25 {
		t.Fatalf("max edge weight %d, want 25", w)
	}
}

func TestSelectGraphIgnoresSelfEdges(t *testing.T) {
	s := NewSelectGraph()
	s.AddCompound(1)
	s.AddWeight(1, 1, 99)
	if _, _, _, ok := s.MaxEdge(); ok {
		t.Fatal("self edge surfaced")
	}
}

// halfInc is one directed half-edge increment: from's reuse window held
// to once.
type halfInc struct{ from, to ChunkKey }

// accumulate feeds incs into h, resolving each from key's list once.
func accumulate(h *HalfEdges, incs []halfInc) {
	handles := map[ChunkKey]int32{}
	for _, in := range incs {
		l, ok := handles[in.from]
		if !ok {
			l = h.NewList(in.from)
			handles[in.from] = l
		}
		h.List(l).Inc(in.to)
	}
}

func TestAddHalvesEqualsCombinedStream(t *testing.T) {
	// Split one half-edge stream across two accumulators; symmetrizing
	// both into one graph must equal the graph that saw every increment
	// as a symmetric AddWeight.
	stream := []halfInc{
		{MakeChunkKey(0, 0), MakeChunkKey(1, 0)},
		{MakeChunkKey(1, 0), MakeChunkKey(0, 0)}, // the other half of (0,0)-(1,0)
		{MakeChunkKey(1, 0), MakeChunkKey(2, 1)},
		{MakeChunkKey(0, 0), MakeChunkKey(1, 0)}, // repeat: weights fold
		{MakeChunkKey(2, 1), MakeChunkKey(3, 0)},
		{MakeChunkKey(0, 1), MakeChunkKey(3, 0)},
		{MakeChunkKey(3, 0), MakeChunkKey(0, 1)},
	}
	whole := NewGraph(256)
	var shardA, shardB HalfEdges
	var incA, incB []halfInc
	for i, in := range stream {
		whole.AddWeight(in.from, in.to, 1)
		if i%2 == 0 {
			incA = append(incA, in)
		} else {
			incB = append(incB, in)
		}
	}
	accumulate(&shardA, incA)
	accumulate(&shardB, incB)
	// Six distinct half-edges, one of them repeated across the split.
	if n := shardA.NumHalfEdges() + shardB.NumHalfEdges(); n != 7 {
		t.Fatalf("accumulators hold %d half-edges, want 7", n)
	}
	merged := NewGraph(256)
	merged.AddHalves(&shardA)
	merged.AddHalves(&shardB)

	if merged.TotalWeight() != whole.TotalWeight() {
		t.Fatalf("merged weight %d, want %d", merged.TotalWeight(), whole.TotalWeight())
	}
	if merged.NumEdges() != whole.NumEdges() {
		t.Fatalf("merged edges %d, want %d", merged.NumEdges(), whole.NumEdges())
	}
	type triple struct {
		a, b ChunkKey
		w    uint64
	}
	var wantE, gotE []triple
	whole.ForEachEdge(func(a, b ChunkKey, w uint64) { wantE = append(wantE, triple{a, b, w}) })
	merged.ForEachEdge(func(a, b ChunkKey, w uint64) { gotE = append(gotE, triple{a, b, w}) })
	if len(gotE) != len(wantE) {
		t.Fatalf("edge list length %d, want %d", len(gotE), len(wantE))
	}
	for i := range wantE {
		if gotE[i] != wantE[i] {
			t.Fatalf("edge[%d] = %+v, want %+v", i, gotE[i], wantE[i])
		}
	}
	if w := merged.Weight(MakeChunkKey(1, 0), MakeChunkKey(0, 0)); w != 3 {
		t.Fatalf("two-sided edge weight %d, want 2+1", w)
	}
	// The accumulators are consumed: a second symmetrization adds nothing.
	if shardA.NumHalfEdges() != 0 || shardB.NumHalfEdges() != 0 {
		t.Fatal("AddHalves left half-edges behind")
	}
	merged.AddHalves(&shardA)
	if merged.TotalWeight() != whole.TotalWeight() {
		t.Fatal("re-adding a consumed accumulator changed the graph")
	}
}

func TestAddHalvesDeterministicOrder(t *testing.T) {
	// Two symmetrizations of the same accumulators in the same order
	// produce the same arena, hence the same ForEachEdge sequence and the
	// same per-key Neighbors order.
	build := func() *Graph {
		var a, b HalfEdges
		var ia, ib []halfInc
		for i := 0; i < 50; i++ {
			ia = append(ia, halfInc{MakeChunkKey(NodeID(i%7), i%3), MakeChunkKey(NodeID(i%5+7), 0)})
			ib = append(ib, halfInc{MakeChunkKey(NodeID(i%6), i%2), MakeChunkKey(NodeID(i%4+6), 1)})
		}
		accumulate(&a, ia)
		accumulate(&b, ib)
		g := NewGraph(256)
		g.AddHalves(&a)
		g.AddHalves(&b)
		return g
	}
	g1, g2 := build(), build()
	var e1, e2 []uint64
	g1.ForEachEdge(func(a, b ChunkKey, w uint64) { e1 = append(e1, uint64(a), uint64(b), w) })
	g2.ForEachEdge(func(a, b ChunkKey, w uint64) { e2 = append(e2, uint64(a), uint64(b), w) })
	g1.Neighbors(MakeChunkKey(7, 0), func(b ChunkKey, w uint64) { e1 = append(e1, uint64(b), w) })
	g2.Neighbors(MakeChunkKey(7, 0), func(b ChunkKey, w uint64) { e2 = append(e2, uint64(b), w) })
	if len(e1) != len(e2) {
		t.Fatalf("edge streams differ in length: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge stream diverges at %d: %d vs %d", i, e1[i], e2[i])
		}
	}
}
