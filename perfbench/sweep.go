package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sweepGrid is the profile-sweep grid: profiling chunk sizes against
// recency-queue thresholds (one to four times the 8 KB cache), natural
// and CCDP layouts, at the default direct-mapped cache. 24 cells, 12
// profile builders, 12 placements.
var sweepGrid = sweep.Grid{
	Chunks:  []int64{64, 128, 256, 512},
	Queues:  []int64{8192, 16384, 32768},
	Layouts: []string{string(sim.LayoutNatural), string(sim.LayoutCCDP)},
}

// sweepRequest is the gcc sweep at scale 1.0 over the store at dir, its
// test input seeded from the benchmark seed.
func sweepRequest(seed uint64, dir string, mc *metrics.Collector, onProgress func(sweep.Progress)) sweep.Request {
	w, _ := workload.Get("gcc")
	test := w.Test()
	test.Seed = deriveSeed(test.Seed, seed)
	opts := sim.DefaultOptions()
	opts.Parallelism = parallel
	opts.Metrics = mc
	return sweep.Request{
		Workload:   w,
		Train:      w.Train(),
		Test:       test,
		Grid:       sweepGrid,
		Options:    opts,
		Trace:      storeConfig(dir),
		OnProgress: onProgress,
	}
}

// sweepReduction averages the CCDP miss-rate reduction over the grid's
// profiling configurations, each against the natural layout.
func sweepReduction(res *sweep.Result) float64 {
	var natural float64
	var ccdp []float64
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Cell.Layout == sim.LayoutNatural {
			natural = c.MissRatePct()
		} else {
			ccdp = append(ccdp, c.MissRatePct())
		}
	}
	var sum float64
	for _, r := range ccdp {
		sum += 100 * (natural - r) / natural
	}
	return sum / float64(len(ccdp))
}

// runSweep measures the decode-once sweep engine on a gcc profiling-knob
// grid. One operation is one Prep.RunShared over the 24 cells, run
// closed-loop.
func runSweep(e *env) (int, int, error) {
	probe := sweepRequest(e.seed, "", nil, nil)
	refs := []traceRef{{probe.Workload, probe.Train}, {probe.Workload, probe.Test}}

	var recorded *metrics.Collector
	dir, setups, err := measureSetup(e, func(dir string) (string, error) {
		recorded = metrics.New()
		return dir, recordTraces(dir, refs, recorded)
	}, func(string) {})
	if err != nil {
		return 0, 0, err
	}

	// The reference: every cell replayed independently (sim.EvalFrom per
	// cell, prep materialized in full).
	prep, err := sweep.NewPrep(sweepRequest(e.seed, dir, nil, nil))
	if err != nil {
		return 0, 0, err
	}
	want, err := prep.RunIndependent(parallel)
	if err != nil {
		return 0, 0, fmt.Errorf("reference: %w", err)
	}
	cells := len(want.Cells)

	attempted, failed := 0, 0
	var reduction float64
	// op runs one sweep and checks it; it returns the RunShared result
	// and wall time. tr (nil when untraced) gets a span per call, under
	// root.
	op := func(req sweep.Request, tr *Tracer, root, id int) (*sweep.Result, time.Duration, error) {
		span := tr.Begin("sweep.new_prep", "gcc", root, id)
		prep, err := sweep.NewPrep(req)
		tr.End(span)
		if err != nil {
			return nil, 0, err
		}
		span = tr.Begin("sweep.run_shared", "gcc", root, id)
		start := time.Now()
		res, err := prep.RunShared(parallel)
		wall := time.Since(start)
		tr.End(span)
		attempted++
		if err != nil {
			return nil, 0, err
		}
		if derr := sweep.DiffResults(want, res); derr != nil {
			failed++
			e.report.note("check failed: %v", derr)
		}
		reduction = sweepReduction(res)
		return res, wall, nil
	}

	window := e.seconds
	if e.traced {
		window /= 2
	}
	lat, err := timedLoop(window, func() (time.Duration, error) {
		_, wall, err := op(sweepRequest(e.seed, dir, nil, nil), nil, 0, 0)
		return wall, err
	})
	if err != nil {
		return attempted, failed, err
	}
	e.report.note("sweep_configs_per_s %.6f cells/s (%d cells / median RunShared of n=%d)", float64(cells)/median(lat).Seconds(), cells, len(lat))
	e.report.note("operation times: %s", spread(lat))
	e.report.note("test_reduction_pct %.4f %% (gcc, mean over %d profiling configs)", reduction, cells/2)
	if !e.traced {
		e.report.set("op_p50_ms", ms(median(lat)), "ms")
		e.report.set("test_reduction_pct", reduction, "%")
		return attempted, failed, nil
	}

	tr := NewTracer()
	var perOps []layers
	tlat, err := timedLoop(window, func() (time.Duration, error) {
		req := len(perOps) + 1
		mc := metrics.New()
		root := tr.Begin("sweep", "gcc", 0, req)
		// The prep phase's progress snapshots bracket the profile
		// broadcast: the first arrives as it starts, the second once the
		// first profile's placement has carved its layout.
		var mu sync.Mutex
		var marks []time.Time
		progress := func(p sweep.Progress) {
			mu.Lock()
			if p.Phase == "prep" && len(marks) < 2 {
				marks = append(marks, time.Now())
			}
			mu.Unlock()
		}
		res, wall, err := op(sweepRequest(e.seed, dir, mc, progress), tr, root, req)
		tr.End(root)
		if err != nil {
			return 0, err
		}
		costs, err := decodeAll(tr, req, dir, refs)
		if err != nil {
			return 0, err
		}
		train := costs[refs[0].String()]
		l := layers{}
		counterLayers(l, mc, 1)
		l["trace.decode_s"] = (train.wall + costs[refs[1].String()].wall).Seconds()
		l["trace.ns_per_event"] = nsPerEvent(costs)
		if len(marks) == 2 {
			self := marks[1].Sub(marks[0]) - train.wall
			l["profile.self_s"] = self.Seconds()
			l["profile.ns_per_ref"] = nsPer(self, float64(train.refs)*float64(res.ProfilesBroadcast))
		}
		// Every broadcast profile builder sees every train reference.
		l["profile.refs"] = float64(train.refs) * float64(res.ProfilesBroadcast)
		l["placement.s"] = mc.StageTotal(metrics.StagePlace).Seconds()
		l["sweep.prep_s"] = time.Duration(res.PrepNanos).Seconds()
		l["sweep.run_s"] = time.Duration(res.WallNanos).Seconds()
		l["sweep.decode_s"] = time.Duration(res.DecodeNanos).Seconds()
		l["sweep.groups"] = float64(res.Groups)
		l["sweep.peak_prep_bytes"] = float64(res.PeakPrepBytes)
		perOps = append(perOps, l)
		return wall, nil
	})
	if err != nil {
		return attempted, failed, err
	}
	l := medianLayers(perOps)
	if err := setupLayers(l, refs, setups, recorded); err != nil {
		return attempted, failed, err
	}
	l["tracing.overhead_ms"] = ms(median(tlat)) - ms(median(lat))
	l.publish(e.report)
	return attempted, failed, e.writeSpans(tr)
}
