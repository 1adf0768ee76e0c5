package server

import (
	"fmt"
	"net/http"

	"repro/internal/benchsuite"
	"repro/internal/cache"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// APIVersion is the served request-API version; every job route lives
// under /v1/. Breaking a request or response type means adding a /v2/
// tree, not mutating this one — clients pin the path.
const APIVersion = 1

// JobKind names what a job computes.
type JobKind string

// The served job kinds.
const (
	// KindEval runs the full experiment — profile, place, evaluate the
	// requested layouts on the requested inputs — and returns the
	// per-input per-layout miss rates (the miss-rate prediction).
	KindEval JobKind = "eval"
	// KindPlace runs profile + placement and returns the placement plan:
	// the relaid global segment, heap plans, and merge decisions.
	KindPlace JobKind = "place"
	// KindExplain is KindEval with miss attribution on: the result adds
	// per-set heatmaps and the top (victim, evictor) conflict pairs.
	KindExplain JobKind = "explain"
	// KindSweep runs the decode-once layout sweep over a grid and
	// returns the per-cell matrix with the Pareto frontier marked.
	KindSweep JobKind = "sweep"
	// KindSuite runs the benchmark suite over the requested workloads
	// (default: all nine) and returns every comparison.
	KindSuite JobKind = "suite"
)

// JobRequest is the POST /v1/jobs body: what to compute, on which
// workload(s), at what scale, with optional configuration overrides.
// The zero value of every optional field selects the server default.
type JobRequest struct {
	// Kind selects the computation ("" = eval).
	Kind JobKind `json:"kind,omitempty"`
	// Workload names the model to run (required except for suite jobs).
	Workload string `json:"workload,omitempty"`
	// Workloads restricts a suite job (nil = all nine).
	Workloads []string `json:"workloads,omitempty"`
	// Scale multiplies input burst counts (0 = server default). The
	// server rejects scales above its configured maximum.
	Scale float64 `json:"scale,omitempty"`
	// Layouts restricts the evaluated placements (nil = natural+ccdp;
	// not accepted on suite jobs, which run the fixed harness pipeline).
	Layouts []string `json:"layouts,omitempty"`
	// Inputs restricts the evaluated datasets to "train"/"test" subsets
	// (nil = both; not accepted on suite jobs).
	Inputs []string `json:"inputs,omitempty"`
	// Cache overrides the simulated cache geometry (not accepted on
	// suite jobs).
	Cache *CacheSpec `json:"cache,omitempty"`
	// Profile overrides the profiling configuration (not accepted on
	// suite jobs).
	Profile *ProfileSpec `json:"profile,omitempty"`
	// Grid is the sweep grid (sweep jobs only; nil = the default grid).
	Grid *sweep.Grid `json:"grid,omitempty"`
}

// CacheSpec is a request's cache-geometry override. Zero fields keep
// the paper's defaults. Changing Size re-derives the profiling chunk
// and queue defaults from the new size, exactly as the sweep engine's
// cells do.
type CacheSpec struct {
	Size  int64 `json:"size,omitempty"`
	Block int64 `json:"block,omitempty"`
	Assoc int   `json:"assoc,omitempty"`
}

// ProfileSpec is a request's profiling override; zero fields keep the
// (possibly cache-derived) defaults.
type ProfileSpec struct {
	Chunk  int64   `json:"chunk,omitempty"`
	Queue  int64   `json:"queue,omitempty"`
	Cutoff float64 `json:"cutoff,omitempty"`
}

// JobState is a job's lifecycle state.
type JobState string

// The job lifecycle: queued -> running -> done | failed | cancelled.
// A queued job cancelled before a worker picks it up goes straight to
// cancelled.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the GET /v1/jobs/{id} response (and the element of the
// GET /v1/jobs listing).
type JobStatus struct {
	ID       string   `json:"id"`
	Kind     JobKind  `json:"kind"`
	Workload string   `json:"workload,omitempty"`
	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	// SubmittedNs/StartedNs/DoneNs are nanoseconds relative to the
	// server's start (its epoch), mirroring the ledger's span times.
	SubmittedNs int64 `json:"submittedNs"`
	StartedNs   int64 `json:"startedNs,omitempty"`
	DoneNs      int64 `json:"doneNs,omitempty"`
	// Progress reports the pipeline stages in flight, fed by the
	// core.Experiment stage hook through a benchsuite.Progress tracker.
	Progress *benchsuite.ProgressSnapshot `json:"progress,omitempty"`
	// Sweep reports a sweep job's latest per-cell progress (cells done /
	// total, layout groups carved, decode position). Nil until the sweep
	// reports; retained after completion.
	Sweep *telemetry.SweepProgress `json:"sweep,omitempty"`
	// ResultURL is set once the job is done.
	ResultURL string `json:"resultUrl,omitempty"`
	// LedgerURL serves the job's structured run ledger (JSONL).
	LedgerURL string `json:"ledgerUrl,omitempty"`
	// TraceURL serves the job's span tree (JSON); EventsURL its live
	// event stream (SSE, or long-poll JSON with ?poll=1).
	TraceURL  string `json:"traceUrl,omitempty"`
	EventsURL string `json:"eventsUrl,omitempty"`
}

// JobTrace is the GET /v1/jobs/{id}/trace response: the job's span tree
// as recorded so far (complete and closed once the job is terminal).
type JobTrace struct {
	ID    string           `json:"id"`
	Kind  JobKind          `json:"kind"`
	State JobState         `json:"state"`
	Spans []telemetry.Span `json:"spans"`
}

// EventPage is the GET /v1/jobs/{id}/events?poll=1 long-poll response:
// the events after the requested cursor, how many were dropped before
// the cursor caught up, and whether the stream has more to offer.
type EventPage struct {
	Events  []telemetry.Event `json:"events"`
	Skipped uint64            `json:"skipped,omitempty"`
	Open    bool              `json:"open"`
}

// JobList is the GET /v1/jobs response, jobs in submission order.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// WorkloadInfo is one entry of the GET /v1/workloads response.
type WorkloadInfo struct {
	Name          string `json:"name"`
	Description   string `json:"description"`
	HeapPlacement bool   `json:"heapPlacement"`
}

// Health is the GET /healthz response.
type Health struct {
	Status  string         `json:"status"`
	Epoch   string         `json:"epoch"`
	Jobs    map[string]int `json:"jobs"`
	Workers int            `json:"workers"`
}

// apiError is every non-2xx response body.
type apiError struct {
	Error string `json:"error"`
}

// requestError pairs a client-facing validation failure with its HTTP
// status code.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) *requestError {
	return &requestError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) *requestError {
	return &requestError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// validate checks a decoded JobRequest against the server's limits and
// normalizes defaults (kind, scale). It returns a *requestError carrying
// the HTTP status to respond with: 404 for unknown workloads, 400 for
// everything else malformed.
func (s *Server) validate(req *JobRequest) error {
	if req.Kind == "" {
		req.Kind = KindEval
	}
	switch req.Kind {
	case KindEval, KindPlace, KindExplain, KindSweep, KindSuite:
	default:
		return badRequest("unknown job kind %q", req.Kind)
	}
	if req.Scale < 0 {
		return badRequest("scale %g < 0", req.Scale)
	}
	if req.Scale == 0 {
		req.Scale = s.cfg.Scale
	}
	if req.Scale > s.cfg.MaxScale {
		return badRequest("scale %g above the server limit %g", req.Scale, s.cfg.MaxScale)
	}
	if req.Kind == KindSuite {
		if req.Workload != "" {
			return badRequest("suite jobs take workloads (plural), not workload")
		}
		// The suite runs the harness's fixed pipeline configuration;
		// benchsuite.Config has no seams for these overrides, and
		// accepting them while computing with defaults would misreport
		// what was run.
		switch {
		case req.Cache != nil:
			return badRequest("cache overrides are not supported on suite jobs")
		case req.Profile != nil:
			return badRequest("profile overrides are not supported on suite jobs")
		case len(req.Layouts) > 0:
			return badRequest("layouts are not supported on suite jobs")
		case len(req.Inputs) > 0:
			return badRequest("inputs are not supported on suite jobs")
		}
		for _, name := range req.Workloads {
			if _, err := workload.Get(name); err != nil {
				return notFound("unknown workload %q", name)
			}
		}
	} else {
		if req.Workload == "" {
			return badRequest("%s jobs require a workload", req.Kind)
		}
		if _, err := workload.Get(req.Workload); err != nil {
			return notFound("unknown workload %q", req.Workload)
		}
	}
	for _, l := range req.Layouts {
		switch sim.LayoutKind(l) {
		case sim.LayoutNatural, sim.LayoutCCDP, sim.LayoutRandom:
		default:
			return badRequest("unknown layout %q", l)
		}
	}
	for _, in := range req.Inputs {
		if in != "train" && in != "test" {
			return badRequest("unknown input %q (want train or test)", in)
		}
	}
	if req.Cache != nil {
		cfg := applyCacheSpec(cache.DefaultConfig, req.Cache)
		if err := cfg.Validate(); err != nil {
			return badRequest("cache: %v", err)
		}
	}
	if req.Profile != nil {
		size := cache.DefaultConfig.Size
		if req.Cache != nil && req.Cache.Size > 0 {
			size = req.Cache.Size
		}
		pc := applyProfileSpec(profile.DefaultConfig(size), req.Profile)
		if err := pc.Validate(); err != nil {
			return badRequest("profile: %v", err)
		}
	}
	if req.Grid != nil && req.Kind != KindSweep {
		return badRequest("grid is only valid on sweep jobs")
	}
	if req.Kind == KindSweep {
		var g sweep.Grid
		if req.Grid != nil {
			g = *req.Grid
		}
		// Count before expanding: a small request can describe a cross
		// product far too large to materialize.
		if n := g.NumCells(); n > s.cfg.MaxSweepCells {
			return badRequest("grid expands to %d cells, above the server limit %d",
				n, s.cfg.MaxSweepCells)
		}
		if _, err := g.Cells(); err != nil {
			return badRequest("%v", err)
		}
	}
	return nil
}

// applyCacheSpec overlays the non-zero fields of spec on base.
func applyCacheSpec(base cache.Config, spec *CacheSpec) cache.Config {
	if spec.Size > 0 {
		base.Size = spec.Size
	}
	if spec.Block > 0 {
		base.BlockSize = spec.Block
	}
	if spec.Assoc > 0 {
		base.Assoc = spec.Assoc
	}
	return base
}

// applyProfileSpec overlays the non-zero fields of spec on base.
func applyProfileSpec(base profile.Config, spec *ProfileSpec) profile.Config {
	if spec.Chunk > 0 {
		base.ChunkSize = spec.Chunk
	}
	if spec.Queue > 0 {
		base.QueueThreshold = spec.Queue
	}
	if spec.Cutoff > 0 {
		base.PopularityCutoff = spec.Cutoff
	}
	return base
}
