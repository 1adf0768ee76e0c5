package core

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The Run error paths: each pipeline stage's failure must surface with the
// stage named in the error and no partial Comparison returned.

func TestRunProfilingError(t *testing.T) {
	w, err := workload.Get("mgrid")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	opts.Profile.ChunkSize = -1 // rejected by profile.Config.Validate
	cmp, err := Run(w, opts, nil, quickInputs(w, 0.02))
	if err == nil || !strings.Contains(err.Error(), "profiling") {
		t.Fatalf("err = %v, want profiling-stage error", err)
	}
	if cmp != nil {
		t.Error("partial comparison returned alongside error")
	}
}

func TestRunPlacementError(t *testing.T) {
	w, err := workload.Get("mgrid")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	opts.Cache.BlockSize = 33 // not a power of two; placement validates the target
	cmp, err := Run(w, opts, nil, quickInputs(w, 0.02))
	if err == nil || !strings.Contains(err.Error(), "placing") {
		t.Fatalf("err = %v, want placement-stage error", err)
	}
	if cmp != nil {
		t.Error("partial comparison returned alongside error")
	}
}

func TestRunEvaluationError(t *testing.T) {
	w, err := workload.Get("mgrid")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Run(w, sim.DefaultOptions(), []sim.LayoutKind{"bogus"}, quickInputs(w, 0.02))
	if err == nil || !strings.Contains(err.Error(), "evaluating") {
		t.Fatalf("err = %v, want evaluation-stage error", err)
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("err = %v, want the offending layout named", err)
	}
	if cmp != nil {
		t.Error("partial comparison returned alongside error")
	}
}

func TestRunAllReportsPerWorkloadErrors(t *testing.T) {
	ws := []workload.Workload{}
	for _, name := range []string{"mgrid", "compress"} {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	opts := sim.DefaultOptions()
	opts.Profile.ChunkSize = -1
	cmps, errs := RunAll(ws, opts, nil, 2)
	if len(cmps) != 2 || len(errs) != 2 {
		t.Fatalf("got %d cmps / %d errs, want 2/2", len(cmps), len(errs))
	}
	for i := range ws {
		if errs[i] == nil || cmps[i] != nil {
			t.Errorf("workload %d: err=%v cmp=%v, want error and nil cmp", i, errs[i], cmps[i])
		}
	}
}

// TestRunPopulatesMetrics pins the wiring contract: one instrumented Run
// must record events in every pipeline layer the collector covers.
func TestRunPopulatesMetrics(t *testing.T) {
	// deltablue is heap-heavy, so allocation counters must move too.
	w, err := workload.Get("deltablue")
	if err != nil {
		t.Fatal(err)
	}
	mc := metrics.New()
	opts := sim.DefaultOptions()
	opts.Metrics = mc
	if _, err := Run(w, opts, nil, quickInputs(w, 0.05)); err != nil {
		t.Fatal(err)
	}

	for _, ctr := range []metrics.Counter{
		metrics.TraceEvents, metrics.TraceAllocs, metrics.TRGEdges,
		metrics.TRGWeight, metrics.SimAccesses, metrics.SimMisses,
	} {
		if mc.Get(ctr) == 0 {
			t.Errorf("counter %s stayed zero through a full pipeline", ctr)
		}
	}
	if mc.StageCount(metrics.StagePipeline) != 1 {
		t.Errorf("pipeline stage count = %d, want 1", mc.StageCount(metrics.StagePipeline))
	}
	if mc.StageCount(metrics.StageProfile) != 1 || mc.StageCount(metrics.StagePlace) != 1 {
		t.Error("profile/place stages not each timed once")
	}
	// One pass per input: two inputs, each evaluating both layouts in
	// one decode.
	if got := mc.StageCount(metrics.StageEval); got != 2 {
		t.Errorf("eval stage count = %d, want 2", got)
	}
	if mc.StageTotal(metrics.StagePipeline) < mc.StageTotal(metrics.StageProfile) {
		t.Error("pipeline span shorter than its profile sub-span")
	}
	snap := mc.Snapshot()
	if v, _ := snap.NamedCounter("sim.misses." + string(sim.LayoutCCDP)); v == 0 {
		t.Error("per-layout miss counter missing for ccdp")
	}
	if h, _ := snap.Hist(metrics.HistAccessSize.String()); h.Count == 0 {
		t.Error("access-size histogram empty")
	}
}

// TestRunMetricsDisabledMatchesEnabled guards against instrumentation
// perturbing results: the same run with and without a collector must
// produce identical miss rates.
func TestRunMetricsDisabledMatchesEnabled(t *testing.T) {
	w, err := workload.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(w, sim.DefaultOptions(), nil, quickInputs(w, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions()
	opts.Metrics = metrics.New()
	instrumented, err := Run(w, opts, nil, quickInputs(w, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range []string{"train", "test"} {
		for _, kind := range []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP} {
			a, b := plain.Result(input, kind), instrumented.Result(input, kind)
			if a.MissRate() != b.MissRate() {
				t.Errorf("%s/%s: miss rate %g with metrics off vs %g on", input, kind, a.MissRate(), b.MissRate())
			}
		}
	}
}
