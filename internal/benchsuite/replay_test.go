package benchsuite

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The replay determinism family is the acceptance gate of the trace-file
// pipeline: driving every pass from recorded traces must reproduce the
// live artifacts byte for byte, at any parallelism, on the first run
// (record + replay) and on every later run (pure replay).

func runArtifact(t *testing.T, names []string, parallelism int, tc sim.TraceConfig) []byte {
	t.Helper()
	var cmps []*core.Comparison
	for _, name := range names {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := sim.DefaultOptions()
		opts.Parallelism = parallelism
		cmp, err := core.RunExperiment(core.Experiment{
			Workload: w, Options: opts, Inputs: ScaledInputs(w, 0.05), Trace: tc,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %s: %v", parallelism, name, err)
		}
		cmps = append(cmps, cmp)
	}
	art := BuildArtifact("replay-determinism", 0.05, cmps, metrics.Snapshot{})
	art.Timing = nil
	b, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayMatchesLive is the committed acceptance test of ISSUE 4: at
// -parallel 1 and 4, core.Run artifacts driven from trace files are
// byte-identical to live emission. The first traced run records; a second
// traced run (pure replay, enforced by RequireRecorded) must match too.
func TestReplayMatchesLive(t *testing.T) {
	names := []string{"compress", "espresso", "deltablue"}
	for _, parallelism := range []int{1, 4} {
		live := runArtifact(t, names, parallelism, sim.TraceConfig{})
		dir := t.TempDir()
		recorded := runArtifact(t, names, parallelism, sim.TraceConfig{Dir: dir})
		if !bytes.Equal(live, recorded) {
			t.Fatalf("parallelism %d: record+replay run diverged from live:\nlive:   %s\ntraced: %s",
				parallelism, live, recorded)
		}
		replayed := runArtifact(t, names, parallelism, sim.TraceConfig{Dir: dir, RequireRecorded: true})
		if !bytes.Equal(live, replayed) {
			t.Fatalf("parallelism %d: pure replay diverged from live:\nlive:   %s\nreplay: %s",
				parallelism, live, replayed)
		}
	}
}

// TestReplaySuiteMatchesLive runs the suite harness itself over the trace
// path (the ccdpbench -replay surface) and pins the artifact to the live
// suite's, plus the traced-run invariants: trace files appear once and a
// replay-only second run touches none of them.
func TestReplaySuiteMatchesLive(t *testing.T) {
	names := []string{"compress", "m88ksim"}
	run := func(tc sim.TraceConfig) []byte {
		cmps, scale, err := Config{Scale: 0.05, Workloads: names, Parallelism: 4, Trace: tc}.Run()
		if err != nil {
			t.Fatal(err)
		}
		art := BuildArtifact("replay-suite", scale, cmps, metrics.Snapshot{})
		art.Timing = nil
		b, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	live := run(sim.TraceConfig{})
	dir := t.TempDir()
	traced := run(sim.TraceConfig{Dir: dir})
	if !bytes.Equal(live, traced) {
		t.Fatalf("traced suite diverged from live:\nlive:   %s\ntraced: %s", live, traced)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.ctrace"))
	if err != nil {
		t.Fatal(err)
	}
	// Two workloads × (full profiling train, scaled train, scaled test):
	// the profile pass runs the unscaled train input, the evaluations the
	// scaled ones, and each distinct input gets exactly one trace.
	if len(files) != 6 {
		t.Fatalf("expected 6 trace files, found %d: %v", len(files), files)
	}
	stamp := make(map[string]int64)
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		stamp[f] = fi.Size()
	}
	replayOnly := run(sim.TraceConfig{Dir: dir, RequireRecorded: true})
	if !bytes.Equal(live, replayOnly) {
		t.Fatalf("replay-only suite diverged from live:\nlive:   %s\nreplay: %s", live, replayOnly)
	}
	for f, size := range stamp {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != size {
			t.Errorf("replay-only run rewrote %s", f)
		}
	}
}

// TestReplayRequireRecordedMissing pins replay-only mode's failure shape:
// a missing trace is an error, not a silent fallback to the live model.
func TestReplayRequireRecordedMissing(t *testing.T) {
	w, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.RunExperiment(core.Experiment{
		Workload: w,
		Options:  sim.DefaultOptions(),
		Inputs:   ScaledInputs(w, 0.05),
		Trace:    sim.TraceConfig{Dir: t.TempDir(), RequireRecorded: true},
	})
	if err == nil {
		t.Fatal("replay-only run with no traces succeeded")
	}
}

// TestWorkerDonationDeterminism pins the idle-worker donation: with fewer
// workloads than pool workers, the spare parallelism flows into each
// experiment's profile and evaluation stages — and must not change a byte.
func TestWorkerDonationDeterminism(t *testing.T) {
	run := func(parallelism int) []byte {
		cmps, scale, err := Config{Scale: 0.05, Workloads: []string{"compress", "espresso"}, Parallelism: parallelism}.Run()
		if err != nil {
			t.Fatal(err)
		}
		art := BuildArtifact("donation", scale, cmps, metrics.Snapshot{})
		art.Timing = nil
		b, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := run(1)
	donated := run(8) // 2 workloads on 8 workers: inner parallelism 4
	if !bytes.Equal(seq, donated) {
		t.Fatalf("donated-worker run diverged from sequential:\nsequential: %s\ndonated:    %s", seq, donated)
	}
}

// TestSuiteReplayCount pins decode-once evaluation with a work counter
// that holds on any CPU count: over a warm trace store, each program
// replays its train trace once to profile and each input once to
// evaluate every layout — 3 replays per program, 27 for the nine-program
// suite — at any parallelism.
func TestSuiteReplayCount(t *testing.T) {
	tc := sim.TraceConfig{Dir: t.TempDir()}
	if _, _, err := (Config{Scale: 0.02, Trace: tc}).Run(); err != nil {
		t.Fatal(err) // records every trace: the store is warm from here on
	}
	tc.RequireRecorded = true
	for _, parallelism := range []int{1, 4} {
		mc := metrics.New()
		if _, _, err := (Config{Scale: 0.02, Trace: tc, Metrics: mc, Parallelism: parallelism}).Run(); err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if got, want := mc.StageCount(metrics.StageReplay), uint64(3*len(workload.All())); got != want {
			t.Fatalf("parallelism %d: %d trace replays, want %d", parallelism, got, want)
		}
	}
}
