package exec

import (
	"slices"
	"testing"
)

// TestBroadcastDeliversEveryBatchToEveryWorker checks the broadcast
// contract inline (one worker) and fanned out: every worker sees every
// flushed item exactly once, in flush order, and discarded items never.
// Batches are flushed both when Add reports them full and early, and
// more of them pass than the free list holds, so buffers recycle.
func TestBroadcastDeliversEveryBatchToEveryWorker(t *testing.T) {
	for _, workers := range []int{1, 3} {
		seen := make([][]int, workers)
		b := NewBroadcast(workers, func(w int, items []int) {
			seen[w] = append(seen[w], items...)
		})
		var want, pending []int
		fills := 0
		for i := 0; i < 20*batchLen; i++ {
			full := b.Add(i)
			pending = append(pending, i)
			switch {
			case full:
				fills++
				fallthrough
			case i%10007 == 10006:
				b.Flush()
				want, pending = append(want, pending...), nil
			case i%9001 == 9000:
				b.Discard()
				pending = nil
			}
		}
		b.Flush()
		b.Close()
		want = append(want, pending...)
		if fills == 0 {
			t.Fatalf("%d workers: no batch ever filled", workers)
		}
		for w := range seen {
			if !slices.Equal(seen[w], want) {
				t.Fatalf("%d workers: worker %d saw %d items, want %d", workers, w, len(seen[w]), len(want))
			}
		}
	}
}
