package sim

import (
	"bytes"
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
// test of the profiling pass: on real workloads, the persisted profile
// from a run with a parallel budget must be byte-identical to the
// sequential one at every budget.
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

// TestProfilePassParallelMetricsParity asserts the instrumentation a
// profiling pass with a parallel budget reports — evictions, TRG totals,
// occupancy histogram — matches the sequential run's.
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
	if h, ok := par.Metrics.Snapshot().Hist(metrics.HistQueueOccupancy.String()); !ok || h.Count == 0 {
		t.Error("queue occupancy histogram missing from parallel run")
	}
}
