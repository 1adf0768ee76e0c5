package profile

import (
	"repro/internal/metrics"
	"repro/internal/trg"
)

// recencyQueue is the queue-step kernel of the profiling pass: the
// paper's Q (section 3.2), a move-to-front list of the most recently
// touched chunks capped at threshold total bytes, fused with the TRG
// half-edges its scans produce. It is the single mutable structure of a
// profiling run, owned by the Profiler. Three choices keep a touch cheap:
//
//   - Dense chunk index. Chunk keys are node-major and bounded by the
//     node's chunk count, so rows[node][chunk] locates a chunk's queue
//     slot and half-edge list with two slice indexes instead of a hashed
//     lookup. Each row is sized from its node's chunk count on first
//     touch, so the index stays O(footprint/chunk).
//   - Slab queue. Entries live in one slice linked by int32 slots, and
//     evicted slots are recycled through a free list: once warm the
//     queue churns one eviction per insertion without allocating, and
//     the scan walks contiguous memory instead of chasing heap pointers.
//   - One-sided scans. A hit counts only its own half of each edge: the
//     touched chunk's half-edge list is resolved once per scan and bumped
//     for every entry ahead. Finish sums the halves into the symmetric
//     graph (trg.Graph.AddHalves).
type recencyQueue struct {
	threshold int64
	rows      [][]chunkCell
	ents      []qEntry
	head      int32 // most recent; noSlot when empty
	tail      int32
	free      int32 // recycled slots, chained through next
	bytes     int64

	acc trg.HalfEdges

	// Queue-local instrumentation, published by flush once per batch.
	evictions uint64
	scanLen   metrics.LocalHist
}

// chunkCell is one dense-index cell.
type chunkCell struct {
	slot int32 // queue slot + 1; 0 = not queued
	list int32 // half-edge list handle + 1; 0 = never scanned
}

type qEntry struct {
	key        trg.ChunkKey
	size       int64
	prev, next int32
}

const noSlot = -1

// maxExactRow caps the index rows sized up front from their node's chunk
// count (512 KiB of cells). Rows of larger nodes grow with the chunks
// actually touched, so an implausibly large object in a replayed trace
// costs index memory only for what its accesses reach.
const maxExactRow = 1 << 16

// rowHint returns the index row size to pass to touch for a node of the
// given chunk count: the count itself when small enough to size up front,
// else 0 (grow on demand).
func rowHint(chunks int) int32 {
	if chunks > maxExactRow {
		return 0
	}
	return int32(chunks)
}

// init readies the queue; threshold is the byte cap (paper: 2x cache size).
func (q *recencyQueue) init(threshold int64) {
	q.threshold = threshold
	q.head, q.tail, q.free = noSlot, noSlot, noSlot
}

// touch is the TRG queue step of section 3.2 for chunk key of size bytes
// (chunks is the index row size for the key's node, from rowHint). When key
// is queued, every chunk touched since key's last touch — the entries
// ahead of it, its reuse window — gains one on the half-edge from key.
// Entries that fell off the end of the queue would have been evicted by
// capacity anyway, so no relationship is recorded for them.
func (q *recencyQueue) touch(key trg.ChunkKey, size int64, chunks int32) {
	c := q.cell(key, chunks)
	s := c.slot - 1
	if s < 0 {
		q.insert(c, key, size)
		return
	}
	var n uint64
	if s != q.head {
		hl := q.listOf(c, key)
		for x := q.head; x != s; x = q.ents[x].next {
			hl.Inc(q.ents[x].key)
			n++
		}
	}
	q.scanLen.Observe(n)
	q.moveToFront(s)
}

// listOf returns the half-edge list of key, whose index cell is c,
// creating it on first use.
func (q *recencyQueue) listOf(c *chunkCell, key trg.ChunkKey) *trg.HalfList {
	if c.list == 0 {
		c.list = q.acc.NewList(key) + 1
	}
	return q.acc.List(c.list - 1)
}

// cell returns key's index cell, sizing a new or outgrown row from the
// node's row hint.
func (q *recencyQueue) cell(key trg.ChunkKey, chunks int32) *chunkCell {
	n, c := int(key.Node()), key.Chunk()
	if n >= len(q.rows) {
		q.rows = append(q.rows, make([][]chunkCell, n+1-len(q.rows))...)
	}
	row := q.rows[n]
	if c >= len(row) {
		size := int(chunks)
		if size <= c {
			// No hint, or a touch past the node's recorded size: grow
			// geometrically so a creeping offset cannot turn growth
			// quadratic.
			size = max(c+1, 2*len(row))
		}
		grown := make([]chunkCell, size)
		copy(grown, row)
		q.rows[n], row = grown, grown
	}
	return &row[c]
}

// insert queues a fresh key at the front and evicts from the tail while
// over threshold.
func (q *recencyQueue) insert(c *chunkCell, key trg.ChunkKey, size int64) {
	s := q.free
	if s != noSlot {
		q.free = q.ents[s].next
	} else {
		s = int32(len(q.ents))
		q.ents = append(q.ents, qEntry{})
	}
	q.ents[s] = qEntry{key: key, size: size}
	c.slot = s + 1
	q.pushFront(s)
	q.bytes += size
	for q.bytes > q.threshold && q.tail != q.head {
		v := q.tail
		q.unlink(v)
		ve := &q.ents[v]
		q.rows[ve.key.Node()][ve.key.Chunk()].slot = 0
		q.bytes -= ve.size
		ve.next = q.free
		q.free = v
		q.evictions++
	}
}

func (q *recencyQueue) pushFront(s int32) {
	e := &q.ents[s]
	e.prev = noSlot
	e.next = q.head
	if q.head != noSlot {
		q.ents[q.head].prev = s
	}
	q.head = s
	if q.tail == noSlot {
		q.tail = s
	}
}

func (q *recencyQueue) unlink(s int32) {
	e := &q.ents[s]
	if e.prev != noSlot {
		q.ents[e.prev].next = e.next
	} else {
		q.head = e.next
	}
	if e.next != noSlot {
		q.ents[e.next].prev = e.prev
	} else {
		q.tail = e.prev
	}
	e.prev, e.next = noSlot, noSlot
}

func (q *recencyQueue) moveToFront(s int32) {
	if q.head == s {
		return
	}
	q.unlink(s)
	q.pushFront(s)
}

// flush publishes the queue's instrumentation, once per batch: the
// scan-length buckets of the scans it ran, the eviction count and an
// occupancy sample — fine-grained enough to sketch the distribution, far
// off the per-reference path.
func (q *recencyQueue) flush(mc *metrics.Collector) {
	mc.FlushHist(metrics.HistScanLen, &q.scanLen)
	mc.Observe(metrics.HistQueueOccupancy, uint64(q.bytes))
	if q.evictions != 0 {
		mc.Add(metrics.QueueEvictions, q.evictions)
		q.evictions = 0
	}
}
