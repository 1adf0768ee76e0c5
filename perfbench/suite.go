package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// seeded is a paper workload whose test input carries a benchmark-derived
// seed. Everything else, the profiled train input included, is the
// original model's.
type seeded struct {
	workload.Workload
	name string
	test workload.Input
}

func (s seeded) Name() string         { return s.name }
func (s seeded) Test() workload.Input { return s.test }

// suitePrograms returns the nine programs the suite runs for seed. Seed 0
// is the repository's own registry; any other seed registers renamed
// copies whose test inputs draw their seed from it, so the suite harness
// reaches them by name like any other workload.
func suitePrograms(seed uint64) ([]workload.Workload, []string) {
	all := workload.All()
	if seed == 0 {
		return all, workload.Names()
	}
	ws := make([]workload.Workload, len(all))
	names := make([]string, len(all))
	for i, w := range all {
		test := w.Test()
		test.Seed = deriveSeed(test.Seed, seed)
		s := seeded{Workload: w, name: fmt.Sprintf("%s@%d", w.Name(), seed), test: test}
		workload.Register(s)
		ws[i], names[i] = s, s.name
	}
	return ws, names
}

// suiteRefs is every trace the suite replays: each program's train and
// test input at scale 1.0.
func suiteRefs(ws []workload.Workload) []traceRef {
	var refs []traceRef
	for _, w := range ws {
		for _, in := range benchsuite.ScaledInputs(w, 1) {
			refs = append(refs, traceRef{w, in})
		}
	}
	return refs
}

// missRates indexes one suite result: program -> input -> layout -> miss
// rate in percent.
type missRates map[string]map[string]map[sim.LayoutKind]float64

func (m missRates) add(name, input string, kind sim.LayoutKind, rate float64) {
	if m[name] == nil {
		m[name] = map[string]map[sim.LayoutKind]float64{}
	}
	if m[name][input] == nil {
		m[name][input] = map[sim.LayoutKind]float64{}
	}
	m[name][input][kind] = rate
}

func ratesOf(cmps []*core.Comparison) missRates {
	m := missRates{}
	for _, c := range cmps {
		for input, byLayout := range c.Results {
			for kind, r := range byLayout {
				m.add(c.Workload.Name(), input, kind, r.MissRate())
			}
		}
	}
	return m
}

// diff reports the first miss rate of got that differs from want.
func (want missRates) diff(got missRates) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d programs, want %d", len(got), len(want))
	}
	for name, byInput := range want {
		for input, byLayout := range byInput {
			for kind, rate := range byLayout {
				if g, ok := got[name][input][kind]; !ok || g != rate {
					return fmt.Errorf("%s %s/%s: miss rate %v, reference %v", name, input, kind, g, rate)
				}
			}
		}
	}
	return nil
}

// runSuite measures the paper's experiment: nine programs, train and test
// inputs, natural and CCDP layouts, at scale 1.0 from a warm store. One
// operation is one full experiment, run closed-loop.
func runSuite(e *env) (int, int, error) {
	ws, names := suitePrograms(e.seed)
	refs := suiteRefs(ws)

	var recorded *metrics.Collector
	dir, setups, err := measureSetup(e, func(dir string) (string, error) {
		recorded = metrics.New()
		return dir, recordTraces(dir, refs, recorded)
	}, func(string) {})
	if err != nil {
		return 0, 0, err
	}

	// The reference: the same experiment run sequentially on the live
	// model, with no trace store in the loop.
	ref, _, err := benchsuite.Config{Scale: 1, Workloads: names, Parallelism: 1}.Run()
	if err != nil {
		return 0, 0, fmt.Errorf("reference: %w", err)
	}
	want := ratesOf(ref)

	attempted, failed := 0, 0
	var reduction float64
	untraced := func() (time.Duration, error) {
		start := time.Now()
		cmps, _, err := benchsuite.Config{Scale: 1, Workloads: names, Parallelism: parallel, Trace: storeConfig(dir)}.Run()
		wall := time.Since(start)
		attempted++
		if err != nil {
			return 0, err
		}
		if derr := want.diff(ratesOf(cmps)); derr != nil {
			failed++
			e.report.note("check failed: %v", derr)
		}
		reduction = benchsuite.AvgReduction(cmps, "test")
		return wall, nil
	}

	window := e.seconds
	if e.traced {
		window /= 2
	}
	lat, err := timedLoop(window, untraced)
	if err != nil {
		return attempted, failed, err
	}
	e.report.note("suite_s %.6f s (median of n=%d experiments)", median(lat).Seconds(), len(lat))
	e.report.note("operation times: %s", spread(lat))
	e.report.note("test_reduction_pct %.4f %% (paper Table 4: 23.8 %%)", reduction)
	if !e.traced {
		e.report.set("op_p50_ms", ms(median(lat)), "ms")
		e.report.set("test_reduction_pct", reduction, "%")
		return attempted, failed, nil
	}

	tr := NewTracer()
	var perOps []layers
	traced := func() (time.Duration, error) {
		req := len(perOps) + 1
		mc := metrics.New()
		start := time.Now()
		got, profiled, err := tracedSuite(tr, req, ws, dir, mc)
		wall := time.Since(start)
		attempted++
		if err != nil {
			return 0, err
		}
		if derr := want.diff(got); derr != nil {
			failed++
			e.report.note("check failed: %v", derr)
		}
		costs, err := decodeAll(tr, req, dir, refs)
		if err != nil {
			return 0, err
		}
		perOps = append(perOps, suiteLayers(tr.Spans(), req, ws, costs, mc, profiled))
		return wall, nil
	}
	tlat, err := timedLoop(window, traced)
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

// tracedSuite runs the experiment of benchsuite.Config.Run (programs
// fanned over the worker pool, each experiment sequential inside) but
// drives each stage from here, so every call into the profiler, the
// placer and the simulator gets a span.
func tracedSuite(tr *Tracer, req int, ws []workload.Workload, dir string, mc *metrics.Collector) (missRates, uint64, error) {
	root := tr.Begin("suite", "", 0, req)
	defer tr.End(root)
	tasks := make([]exec.Task[experiment], len(ws))
	for i, w := range ws {
		tasks[i] = func(_ context.Context, wmc *metrics.Collector) (experiment, error) {
			return tracedExperiment(tr, root, req, w, dir, wmc)
		}
	}
	parts, err := exec.Map(context.Background(), parallel, mc, tasks)
	if err != nil {
		return nil, 0, err
	}
	got := missRates{}
	var refs uint64
	for _, p := range parts {
		for name, v := range p.rates {
			got[name] = v
		}
		refs += p.profiledRefs
	}
	return got, refs, nil
}

// experiment is one traced program's outcome.
type experiment struct {
	rates        missRates
	profiledRefs uint64
}

// tracedExperiment is one program's profile -> place -> evaluate pipeline
// over the warm store, in core.RunExperiment's order.
func tracedExperiment(tr *Tracer, parent, req int, w workload.Workload, dir string, mc *metrics.Collector) (experiment, error) {
	exp := tr.Begin("experiment", w.Name(), parent, req)
	defer tr.End(exp)
	opts := sim.DefaultOptions()
	opts.Metrics = mc
	ts := sim.NewTraceStore(storeConfig(dir), w, mc)

	src, err := openTrace(tr, exp, req, ts, w.Train(), opts)
	if err != nil {
		return experiment{}, err
	}
	span := tr.Begin("profile", w.Name(), exp, req)
	pr, err := sim.ProfileFrom(src, opts)
	tr.End(span)
	if err != nil {
		return experiment{}, err
	}

	span = tr.Begin("place", w.Name(), exp, req)
	pm, err := sim.Place(w, pr, opts)
	tr.End(span)
	if err != nil {
		return experiment{}, err
	}

	got := missRates{}
	for _, in := range benchsuite.ScaledInputs(w, 1) {
		for _, kind := range []sim.LayoutKind{sim.LayoutNatural, sim.LayoutCCDP} {
			src, err := openTrace(tr, exp, req, ts, in, opts)
			if err != nil {
				return experiment{}, err
			}
			span = tr.Begin("eval", w.Name()+" "+in.Label+"/"+string(kind), exp, req)
			res, err := sim.EvalFrom(src, w.Name(), w.HeapPlacement(), in, kind, pr, pm, opts, 0)
			tr.End(span)
			if err != nil {
				return experiment{}, err
			}
			got.add(w.Name(), in.Label, kind, res.MissRate())
		}
	}
	return experiment{rates: got, profiledRefs: pr.Counter.Refs()}, nil
}

// openTrace opens a stored trace for one pass under its own span: the
// store lookup and header parse that precede the pass.
func openTrace(tr *Tracer, parent, req int, ts *sim.TraceStore, in workload.Input, opts sim.Options) (sim.EventStream, error) {
	span := tr.Begin("store.open", in.Label, parent, req)
	defer tr.End(span)
	return ts.Open(in, opts)
}

// suiteLayers derives one traced experiment's per-layer values. A pass's
// self time is its span minus a decode-only replay of the trace it read:
// the profile pass replays the train trace once; each of the four eval
// passes replays its input's trace.
func suiteLayers(spans []Span, req int, ws []workload.Workload, costs map[string]decodeCost, mc *metrics.Collector, profiled uint64) layers {
	var mine []Span
	for _, s := range spans {
		if s.Req == req {
			mine = append(mine, s)
		}
	}
	self, total := SelfByName(mine), TotalByName(mine)
	var profDecode, evalDecode time.Duration
	for _, w := range ws {
		train := costs[traceRef{w, w.Train()}.String()].wall
		test := costs[traceRef{w, w.Test()}.String()].wall
		profDecode += train
		evalDecode += 2*train + 2*test
	}
	var suiteWall time.Duration
	for _, s := range mine {
		if s.Name == "suite" {
			suiteWall = time.Duration(s.End - s.Start)
		}
	}
	l := layers{}
	refsProfiled := float64(profiled)
	counterLayers(l, mc, 1)
	l["trace.decode_s"] = (profDecode + evalDecode).Seconds()
	l["trace.ns_per_event"] = nsPerEvent(costs)
	l["profile.self_s"] = (self["profile"] - profDecode).Seconds()
	l["profile.refs"] = refsProfiled
	l["profile.ns_per_ref"] = nsPer(self["profile"]-profDecode, refsProfiled)
	l["placement.s"] = self["place"].Seconds()
	evalSelf := self["eval"] - evalDecode
	l["sim.eval_self_s"] = evalSelf.Seconds()
	l["sim.ns_per_access"] = nsPer(evalSelf, float64(mc.Get(metrics.SimAccesses)))
	if suiteWall > 0 {
		l["exec.busy_frac"] = float64(total["experiment"]) / float64(parallel*suiteWall)
	}
	return l
}

// counterLayers sets the per-layer values the program's own collector
// counts, divided over n operations.
func counterLayers(l layers, mc *metrics.Collector, n int) {
	l["trace.events"] = perOp(mc.Get(metrics.TraceEvents), n)
	l["store.bytes_read"] = perOp(mc.Get(metrics.StoreBytesRead), n)
	l["trg.weight"] = perOp(mc.Get(metrics.TRGWeight), n)
	l["trg.edges"] = perOp(mc.Get(metrics.TRGEdges), n)
	l["profile.queue_evictions"] = perOp(mc.Get(metrics.QueueEvictions), n)
	l["placement.merges"] = perOp(mc.Get(metrics.PlacementMerges), n)
	l["place.phase6_merge_s"] = mc.StageTotal(metrics.StagePhaseMerge).Seconds() / float64(n)
	l["place.phase8_heap_plans_s"] = mc.StageTotal(metrics.StagePhaseHeapPlans).Seconds() / float64(n)
	l["sim.accesses"] = perOp(mc.Get(metrics.SimAccesses), n)
	l["sim.misses"] = perOp(mc.Get(metrics.SimMisses), n)
}

// setupLayers sets the set-up layers: the live model alone, the set-up's
// recording time and the bytes it published.
func setupLayers(l layers, refs []traceRef, setups []time.Duration, recorded *metrics.Collector) error {
	gen, err := generate(refs)
	if err != nil {
		return err
	}
	l["workload.gen_s"] = gen.Seconds()
	l["store.record_s"] = median(setups).Seconds()
	l["store.bytes_written"] = float64(recorded.Get(metrics.StoreBytesWritten))
	return nil
}

// medianLayers takes each per-layer value's median over the traced
// operations (counts repeat exactly, so their median is the count).
func medianLayers(ops []layers) layers {
	out := layers{}
	for name := range ops[0] {
		vals := make([]float64, len(ops))
		for i, op := range ops {
			vals[i] = op[name]
		}
		out[name] = medianFloat(vals)
	}
	return out
}
