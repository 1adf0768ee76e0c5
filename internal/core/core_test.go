package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func quickInputs(w workload.Workload, frac float64) []workload.Input {
	tr, te := w.Train(), w.Test()
	tr.Bursts = int(float64(tr.Bursts) * frac)
	te.Bursts = int(float64(te.Bursts) * frac)
	return []workload.Input{tr, te}
}

func TestRunProducesAllResults(t *testing.T) {
	w, err := workload.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Run(w, sim.DefaultOptions(),
		[]sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP, sim.LayoutRandom},
		quickInputs(w, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range []string{"train", "test"} {
		for _, kind := range []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP, sim.LayoutRandom} {
			if cmp.Result(input, kind) == nil {
				t.Errorf("missing result %s/%s", input, kind)
			}
		}
	}
	if cmp.Placement == nil || cmp.Profile == nil {
		t.Fatal("missing profile or placement artifacts")
	}
}

func TestRunDefaultsLayoutsAndInputs(t *testing.T) {
	w, _ := workload.Get("mgrid")
	opts := sim.DefaultOptions()
	cmp, err := Run(w, opts, nil, quickInputs(w, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Result("train", sim.LayoutNatural) == nil || cmp.Result("train", sim.LayoutCCDP) == nil {
		t.Fatal("default layouts missing")
	}
	if cmp.Result("train", sim.LayoutRandom) != nil {
		t.Fatal("random layout evaluated without being requested")
	}
}

func TestReductionComputation(t *testing.T) {
	w, _ := workload.Get("m88ksim")
	cmp, err := Run(w, sim.DefaultOptions(), nil, quickInputs(w, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	red := cmp.Reduction("train")
	orig := cmp.Result("train", sim.LayoutNatural).MissRate()
	ccdp := cmp.Result("train", sim.LayoutCCDP).MissRate()
	want := 100 * (orig - ccdp) / orig
	if red != want {
		t.Fatalf("Reduction = %g, want %g", red, want)
	}
}

func TestReductionMissingInput(t *testing.T) {
	c := &Comparison{Results: map[string]map[sim.LayoutKind]*sim.EvalResult{}}
	if got := c.Reduction("nope"); got != 0 {
		t.Fatalf("Reduction on missing input = %g, want 0", got)
	}
}

func TestResultMissing(t *testing.T) {
	c := &Comparison{Results: map[string]map[sim.LayoutKind]*sim.EvalResult{}}
	if c.Result("train", sim.LayoutCCDP) != nil {
		t.Fatal("missing result should be nil")
	}
}

// TestExperimentDecodesEachInputOnce pins an experiment's replay count:
// one replay of the train trace to profile, then one per input however
// many layouts ride it — at any parallelism.
func TestExperimentDecodesEachInputOnce(t *testing.T) {
	w, err := workload.Get("espresso")
	if err != nil {
		t.Fatal(err)
	}
	sw := scaledWorkload{Workload: w, frac: 0.05}
	dir := t.TempDir()
	for _, parallelism := range []int{1, 4} {
		for _, inputs := range [][]workload.Input{{sw.Test()}, {sw.Train(), sw.Test()}} {
			opts := sim.DefaultOptions()
			opts.Metrics = metrics.New()
			opts.Parallelism = parallelism
			_, err := RunExperiment(Experiment{
				Workload: sw, Options: opts, Inputs: inputs, Trace: sim.TraceConfig{Dir: dir},
				Layouts: []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP, sim.LayoutRandom},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := opts.Metrics.StageCount(metrics.StageReplay), uint64(1+len(inputs)); got != want {
				t.Fatalf("parallelism %d, %d inputs: %d trace replays, want %d",
					parallelism, len(inputs), got, want)
			}
		}
	}
}

// TestLedgerEvalSpansTilePasses pins the ledger's eval spans to the pass
// intervals they come from: one span per (input, layout) unit, the units
// of a pass in consecutive, non-overlapping order, and their walls
// summing to at most the passes' own wall time — so a consumer that sums
// ledger spans counts each pass once, not once per layout.
func TestLedgerEvalSpansTilePasses(t *testing.T) {
	w, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	layouts := []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP, sim.LayoutRandom}
	var buf bytes.Buffer
	lw := ledger.New(&buf)
	var passWall time.Duration
	_, err = RunExperiment(Experiment{
		Workload: scaledWorkload{Workload: w, frac: 0.05}, Options: sim.DefaultOptions(),
		Layouts: layouts, Ledger: lw,
		OnSpan: func(_ string, s metrics.Stage, _ string, _ time.Time, wall time.Duration) {
			if s == metrics.StageEval {
				passWall += wall
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := ledger.Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var evals []ledger.Span
	for _, s := range run.Spans {
		if s.Stage == metrics.StageEval.String() {
			evals = append(evals, s)
		}
	}
	if len(evals) != 2*len(layouts) {
		t.Fatalf("ledger eval spans = %d, want %d", len(evals), 2*len(layouts))
	}
	var sum time.Duration
	for i, s := range evals {
		sum += time.Duration(s.WallNs)
		if i%len(layouts) > 0 && s.StartNs < evals[i-1].StartNs+evals[i-1].WallNs {
			t.Errorf("eval span %d starts at %d, inside unit %d (%d+%d)",
				i, s.StartNs, i-1, evals[i-1].StartNs, evals[i-1].WallNs)
		}
	}
	if sum > passWall {
		t.Errorf("ledger eval spans sum to %v, more than the passes' %v", sum, passWall)
	}
}
