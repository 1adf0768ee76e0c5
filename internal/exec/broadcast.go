package exec

import "sync/atomic"

// Broadcast is the decode-once shape on top of Stream: a producer appends
// items to a current batch and flushes it, and every worker receives every
// batch, in flush order. Batches are refcounted — the last worker to
// finish one recycles its buffer through a FreeList — so steady-state
// streaming allocates nothing. With one worker a flush runs the batch
// inline on the producer's goroutine, with no handoff at all.
//
// The batch shape is fixed here, once, for every producer: a batch is
// full at batchLen items — enough that per-batch synchronization is
// noise against the workers' work, few enough that the in-flight window
// stays cheap — and the producer may run batchDepth batches ahead of
// the slowest worker.
type Broadcast[T any] struct {
	fn      func(worker int, items []T)
	workers int32
	stream  *Stream[*broadcastBatch[T]]
	free    *FreeList[*broadcastBatch[T]]
	cur     *broadcastBatch[T]
}

const (
	batchLen   = 4096
	batchDepth = 8
)

type broadcastBatch[T any] struct {
	items   []T
	pending atomic.Int32
}

// NewBroadcast starts workers workers (clamped to >= 1), each calling
// fn(worker, items) for every flushed batch.
func NewBroadcast[T any](workers int, fn func(worker int, items []T)) *Broadcast[T] {
	b := &Broadcast[T]{fn: fn, workers: int32(max(workers, 1))}
	// batchDepth+4 covers every buffer in flight: every worker queues the
	// same batches (at most batchDepth), plus the ones being processed and filled.
	b.free = NewFreeList(batchDepth+4, func() *broadcastBatch[T] {
		return &broadcastBatch[T]{items: make([]T, 0, batchLen)}
	})
	if b.workers > 1 {
		b.stream = NewStream(int(b.workers), batchDepth, func(w int, bt *broadcastBatch[T]) {
			fn(w, bt.items)
			if bt.pending.Add(-1) == 0 {
				bt.items = bt.items[:0]
				b.free.Put(bt)
			}
		})
	}
	b.cur = b.free.Get()
	return b
}

// Add appends an item to the current batch and reports whether the batch
// is now full, i.e. due for a Flush.
func (b *Broadcast[T]) Add(item T) (full bool) {
	b.cur.items = append(b.cur.items, item)
	return len(b.cur.items) >= batchLen
}

// Len returns the current batch's length.
func (b *Broadcast[T]) Len() int { return len(b.cur.items) }

// Flush hands the current batch to every worker; an empty batch is not
// sent.
func (b *Broadcast[T]) Flush() {
	switch {
	case len(b.cur.items) == 0:
	case b.stream == nil:
		b.fn(0, b.cur.items)
		b.cur.items = b.cur.items[:0]
	default:
		b.cur.pending.Store(b.workers)
		b.stream.Send(b.cur)
		b.cur = b.free.Get()
	}
}

// Discard drops the current batch unsent.
func (b *Broadcast[T]) Discard() { b.cur.items = b.cur.items[:0] }

// Close waits for the workers to finish every flushed batch. Items added
// since the last Flush are not sent.
func (b *Broadcast[T]) Close() {
	if b.stream != nil {
		b.stream.Close()
	}
}
