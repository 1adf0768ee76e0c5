package sim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/profile"
	"repro/internal/workload"
)

// profileBytes runs the profiling pass and serializes the result; the
// serialized form is the strongest equality the pipeline can observe — it
// is what ccdp writes to disk and what placement consumes.
func profileBytes(t *testing.T, name string, opts Options) ([]byte, *profile.Profile) {
	t.Helper()
	w, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := profileLive(w, quickInput(w, 0.05), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := persist.WriteProfile(&buf, pr.Profile); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), pr.Profile
}

// TestProfilePassParallelByteIdentical is the pipeline-level differential
// test of the sharded profiler: on real workloads, the persisted profile
// from a parallel run must be byte-identical to the sequential one for
// every shard count.
func TestProfilePassParallelByteIdentical(t *testing.T) {
	for _, name := range []string{"compress", "espresso", "deltablue"} {
		opts := DefaultOptions()
		want, _ := profileBytes(t, name, opts)
		for _, par := range []int{2, 4, 8} {
			popts := DefaultOptions()
			popts.Parallelism = par
			got, _ := profileBytes(t, name, popts)
			if !bytes.Equal(want, got) {
				t.Errorf("%s: parallel=%d profile differs from sequential (%d vs %d bytes)",
					name, par, len(got), len(want))
			}
		}
	}
}

// TestProfilePassParallelTinyCache covers the geometry-clamping path end
// to end: a cache with a single chunk-sized frame collapses the sharded
// profiler to one worker, which must still match the sequential result.
func TestProfilePassParallelTinyCache(t *testing.T) {
	opts := DefaultOptions()
	opts.Cache.Size = 256 // one set group
	opts.Profile = profile.DefaultConfig(opts.Cache.Size)
	want, _ := profileBytes(t, "compress", opts)
	popts := opts
	popts.Parallelism = 4
	got, _ := profileBytes(t, "compress", popts)
	if !bytes.Equal(want, got) {
		t.Error("single-set-group parallel profile differs from sequential")
	}
}

// TestProfilePassParallelMetricsParity asserts the instrumentation a
// parallel profiling pass reports — evictions, TRG totals, per-shard edge
// counters, occupancy histogram — matches or decomposes the sequential
// run's.
func TestProfilePassParallelMetricsParity(t *testing.T) {
	seq := DefaultOptions()
	seq.Metrics = metrics.New()
	_, sp := profileBytes(t, "espresso", seq)

	par := DefaultOptions()
	par.Parallelism = 4
	par.Metrics = metrics.New()
	_, pp := profileBytes(t, "espresso", par)

	for _, ctr := range []metrics.Counter{metrics.QueueEvictions, metrics.TRGEdges, metrics.TRGWeight} {
		if g, w := par.Metrics.Get(ctr), seq.Metrics.Get(ctr); g != w {
			t.Errorf("counter %v: parallel %d, sequential %d", ctr, g, w)
		}
	}
	if sp.Graph.NumEdges() != pp.Graph.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", sp.Graph.NumEdges(), pp.Graph.NumEdges())
	}
	var perShard uint64
	for i := 0; i < 4; i++ {
		perShard += par.Metrics.GetNamed(fmt.Sprintf("profile.shard%02d.edges", i))
	}
	if merged := uint64(pp.Graph.NumEdges()); perShard < merged || perShard > 2*merged {
		t.Errorf("per-shard edge counters sum to %d, outside [%d, %d]", perShard, merged, 2*merged)
	}
	if h, ok := par.Metrics.Snapshot().Hist(metrics.HistQueueOccupancy.String()); !ok || h.Count == 0 {
		t.Error("queue occupancy histogram missing from parallel run")
	}
}
