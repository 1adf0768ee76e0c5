package benchsuite

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
)

// SchemaVersion identifies the artifact layout. Bump it on any breaking
// change so stale committed baselines fail loudly instead of comparing
// garbage.
//
// v2: the metrics section's counters/named/stages/histograms changed from
// JSON objects to name-sorted arrays (deterministic export order).
const SchemaVersion = 2

// WorkloadReport is one workload's slice of the artifact.
type WorkloadReport struct {
	Name          string `json:"name"`
	HeapPlacement bool   `json:"heapPlacement"`

	// TrainReductionPct / TestReductionPct are the CCDP miss-rate
	// reductions versus natural placement (positive = CCDP better).
	TrainReductionPct float64 `json:"trainReductionPct"`
	TestReductionPct  float64 `json:"testReductionPct"`

	// MissRatePct indexes miss rates by input label then layout.
	MissRatePct map[string]map[string]float64 `json:"missRatePct"`
}

// Artifact is the versioned machine-readable bench result (the
// BENCH_<sha>.json file) and, stripped of its observability section, the
// committed baseline format.
type Artifact struct {
	SchemaVersion int     `json:"schemaVersion"`
	SHA           string  `json:"sha"`
	Scale         float64 `json:"scale"`

	// AvgTestReductionPct is the headline: the paper's Table 4 average
	// cross-input miss-rate reduction. The gate compares this first.
	AvgTestReductionPct  float64 `json:"avgTestReductionPct"`
	AvgTrainReductionPct float64 `json:"avgTrainReductionPct"`

	Workloads []WorkloadReport `json:"workloads"`

	// Metrics is the pipeline observability snapshot (stage timings,
	// counters, sketches). Omitted from baselines: timings are machine-
	// specific and the gate never compares them.
	Metrics metrics.Snapshot `json:"metrics,omitempty"`

	// Timing records the suite's wall clock under the parallel experiment
	// engine, and — when a sequential comparison run was taken — the
	// sequential wall clock and resulting speedup. Machine-specific:
	// stripped from baselines and never gated.
	Timing *Timing `json:"timing,omitempty"`
}

// Timing is the artifact's wall-clock section.
type Timing struct {
	// Parallelism is the worker-pool bound the suite ran with
	// (1 = sequential).
	Parallelism int `json:"parallelism"`
	// WallNanos is the suite's wall clock at that parallelism.
	WallNanos int64 `json:"wallNanos"`
	// SequentialNanos is the wall clock of the sequential comparison
	// run (0 when none was taken).
	SequentialNanos int64 `json:"sequentialNanos,omitempty"`
	// Speedup is SequentialNanos/WallNanos (0 when no comparison ran).
	Speedup float64 `json:"speedup,omitempty"`

	// ProfileNanos is the cumulative profiling-stage (TRG build) time
	// across the suite's pipelines, and SequentialProfileNanos the same
	// for the sequential comparison run (0 when metrics were not
	// collected).
	ProfileNanos           int64 `json:"profileNanos,omitempty"`
	SequentialProfileNanos int64 `json:"sequentialProfileNanos,omitempty"`

	// ReplayNanos is the cumulative time the suite's pipelines spent
	// driving passes from trace-file replay — decode plus in-line
	// handling (0 when the suite ran live or metrics were off).
	ReplayNanos int64 `json:"replayNanos,omitempty"`

	// Sweep fields record the layout-sweep engine's acceptance numbers
	// when a -sweep run produced this artifact: the shared decode-once
	// engine's wall clock and throughput versus the independent
	// one-replay-per-cell comparison run (0/absent when no sweep ran or
	// no comparison was taken).
	SweepCells                    int     `json:"sweepCells,omitempty"`
	SweepWallNanos                int64   `json:"sweepWallNanos,omitempty"`
	SweepIndependentNanos         int64   `json:"sweepIndependentNanos,omitempty"`
	SweepConfigsPerSec            float64 `json:"sweepConfigsPerSec,omitempty"`
	SweepIndependentConfigsPerSec float64 `json:"sweepIndependentConfigsPerSec,omitempty"`
	SweepSpeedup                  float64 `json:"sweepSpeedup,omitempty"`
	SweepDecodeSharePct           float64 `json:"sweepDecodeSharePct,omitempty"`
	SweepPrepNanos                int64   `json:"sweepPrepNanos,omitempty"`
	SweepPrepSharePct             float64 `json:"sweepPrepSharePct,omitempty"`
	SweepPeakPrepBytes            int64   `json:"sweepPeakPrepBytes,omitempty"`
	SweepPrepBytesTotal           int64   `json:"sweepPrepBytesTotal,omitempty"`
	SweepGroups                   int     `json:"sweepGroups,omitempty"`
	SweepProfilesBroadcast        int     `json:"sweepProfilesBroadcast,omitempty"`
	SweepProfilesDeduped          int     `json:"sweepProfilesDeduped,omitempty"`
}

// BuildArtifact assembles an artifact from a suite run.
func BuildArtifact(sha string, scale float64, cmps []*core.Comparison, snap metrics.Snapshot) *Artifact {
	a := &Artifact{
		SchemaVersion:        SchemaVersion,
		SHA:                  sha,
		Scale:                scale,
		AvgTestReductionPct:  AvgReduction(cmps, TestInput),
		AvgTrainReductionPct: AvgReduction(cmps, TrainInput),
		Metrics:              snap,
	}
	for _, c := range cmps {
		wr := WorkloadReport{
			Name:              c.Workload.Name(),
			HeapPlacement:     c.Workload.HeapPlacement(),
			TrainReductionPct: c.Reduction(TrainInput),
			TestReductionPct:  c.Reduction(TestInput),
			MissRatePct:       make(map[string]map[string]float64),
		}
		for input, byLayout := range c.Results {
			m := make(map[string]float64, len(byLayout))
			for kind, res := range byLayout {
				m[string(kind)] = res.MissRate()
			}
			wr.MissRatePct[input] = m
		}
		a.Workloads = append(a.Workloads, wr)
	}
	sort.Slice(a.Workloads, func(i, j int) bool { return a.Workloads[i].Name < a.Workloads[j].Name })
	return a
}

// Baseline returns a copy suitable for committing: observability and
// timing stripped, SHA replaced by a stable marker.
func (a *Artifact) Baseline() *Artifact {
	b := *a
	b.SHA = "baseline"
	b.Metrics = metrics.Snapshot{}
	b.Timing = nil
	return &b
}

// Write emits the artifact as indented JSON.
func (a *Artifact) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteFile writes the artifact to path.
func (a *Artifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadArtifact reads an artifact (or baseline) from path and validates its
// schema version.
func LoadArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("benchsuite: %s: %w", path, err)
	}
	if a.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("benchsuite: %s: schema version %d, want %d (regenerate the baseline)",
			path, a.SchemaVersion, SchemaVersion)
	}
	return &a, nil
}

// Tolerances bound how far current results may regress below a baseline
// before the gate fails, in absolute percentage points of miss-rate
// reduction.
type Tolerances struct {
	// Headline bounds the suite-average test-input reduction.
	Headline float64
	// PerWorkload bounds each individual workload's test-input reduction
	// (looser: single workloads are noisier than the average).
	PerWorkload float64
}

// DefaultTolerances suit the deterministic reduced-scale suite: the
// pipeline is seeded, so genuine drift — not run-to-run noise — is the only
// source of movement.
var DefaultTolerances = Tolerances{Headline: 1.0, PerWorkload: 5.0}

// GateResult is the outcome of one baseline comparison.
type GateResult struct {
	// Failures lists every violated bound, empty when the gate passes.
	Failures []string
	// Notes lists non-fatal observations (e.g. improvements worth
	// re-baselining).
	Notes []string
}

// OK reports whether the gate passed.
func (g GateResult) OK() bool { return len(g.Failures) == 0 }

// Gate compares current against baseline under tol. Comparing runs at
// different scales or over different workload sets is a failure, not a
// silent skip: a gate that stops gating must say so.
func Gate(baseline, current *Artifact, tol Tolerances) GateResult {
	var g GateResult
	fail := func(format string, args ...any) {
		g.Failures = append(g.Failures, fmt.Sprintf(format, args...))
	}
	if baseline.Scale != current.Scale {
		fail("scale mismatch: baseline %g vs current %g", baseline.Scale, current.Scale)
		return g
	}

	if drop := baseline.AvgTestReductionPct - current.AvgTestReductionPct; drop > tol.Headline {
		fail("headline avg test reduction regressed %.2f points (%.2f%% -> %.2f%%, tolerance %.2f)",
			drop, baseline.AvgTestReductionPct, current.AvgTestReductionPct, tol.Headline)
	} else if drop < -tol.Headline {
		g.Notes = append(g.Notes, fmt.Sprintf(
			"headline avg test reduction improved %.2f points (%.2f%% -> %.2f%%); consider re-baselining",
			-drop, baseline.AvgTestReductionPct, current.AvgTestReductionPct))
	}

	cur := make(map[string]WorkloadReport, len(current.Workloads))
	for _, wr := range current.Workloads {
		cur[wr.Name] = wr
	}
	for _, base := range baseline.Workloads {
		now, ok := cur[base.Name]
		if !ok {
			fail("workload %s present in baseline but missing from current run", base.Name)
			continue
		}
		if drop := base.TestReductionPct - now.TestReductionPct; drop > tol.PerWorkload {
			fail("%s test reduction regressed %.2f points (%.2f%% -> %.2f%%, tolerance %.2f)",
				base.Name, drop, base.TestReductionPct, now.TestReductionPct, tol.PerWorkload)
		}
		delete(cur, base.Name)
	}
	for name := range cur {
		g.Notes = append(g.Notes, fmt.Sprintf("workload %s has no baseline entry", name))
	}
	sort.Strings(g.Notes)
	return g
}

// The input labels the artifact aggregates over.
const (
	TrainInput = "train"
	TestInput  = "test"
)
