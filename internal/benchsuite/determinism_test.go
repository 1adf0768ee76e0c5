package benchsuite

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSuiteParallelDeterminism is the acceptance check for the parallel
// experiment engine: the full nine-workload suite, run sequentially and
// on a four-worker pool, must produce byte-identical artifacts once the
// machine-specific sections (observability, timing) are stripped — and
// the merged metrics counters must match the sequential ones exactly.
func TestSuiteParallelDeterminism(t *testing.T) {
	run := func(parallelism int) ([]byte, *metrics.Collector) {
		mc := metrics.New()
		cmps, scale, err := Config{Scale: 0.05, Metrics: mc, Parallelism: parallelism}.Run()
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		art := BuildArtifact("determinism", scale, cmps, metrics.Snapshot{})
		art.Timing = nil
		b, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		return b, mc
	}
	seq, seqMC := run(1)
	par, parMC := run(4)

	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel suite diverged from sequential:\nsequential: %s\nparallel:   %s", seq, par)
	}
	for ctr := metrics.Counter(0); int(ctr) < metrics.NumCounters; ctr++ {
		if s, p := seqMC.Get(ctr), parMC.Get(ctr); s != p {
			t.Errorf("counter %v: sequential %d vs merged parallel %d", ctr, s, p)
		}
	}
}

// TestCoreRunParallelProfileDeterminism extends the determinism gate to
// the profiling stage: the suite harness keeps inner pipelines sequential
// (workloads are the fan-out unit), so this drives core.Run directly,
// where Parallelism > 1 engages the parallel evaluation passes around the
// sequential profile. Artifacts must stay byte-identical.
func TestCoreRunParallelProfileDeterminism(t *testing.T) {
	names := []string{"compress", "espresso", "deltablue"}
	run := func(parallelism int) []byte {
		var cmps []*core.Comparison
		for _, name := range names {
			w, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := sim.DefaultOptions()
			opts.Parallelism = parallelism
			cmp, err := core.Run(w, opts, nil, ScaledInputs(w, 0.05))
			if err != nil {
				t.Fatalf("parallelism %d: %s: %v", parallelism, name, err)
			}
			cmps = append(cmps, cmp)
		}
		art := BuildArtifact("determinism", 0.05, cmps, metrics.Snapshot{})
		art.Timing = nil
		b, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := run(1)
	par := run(4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel profile stage diverged from sequential:\nsequential: %s\nparallel:   %s", seq, par)
	}
}
