package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trg"
	"repro/internal/workload"
)

const (
	// serviceScale is every service request's input scale.
	serviceScale = 0.05
	// serviceRate is the Poisson arrival rate in jobs per second: about
	// half of what two workers sustain on eval jobs of this size.
	serviceRate = 6.0
	// serviceLimit is the service's latency limit.
	serviceLimit = time.Second
)

// service is one booted ccdpd: the server, its listener and the collector
// its jobs fold their pipeline counters into.
type service struct {
	srv  *server.Server
	hs   *http.Server
	dir  string
	base string
	mc   *metrics.Collector
	done chan error
}

// bootService starts a server over the store at dir on a loopback port
// and waits until /healthz answers 200.
func bootService(dir string) (*service, error) {
	mc := metrics.New()
	srv := server.New(server.Config{
		Scale:       serviceScale,
		Parallelism: parallel,
		Workers:     parallel,
		Trace:       storeConfig(dir),
		Metrics:     mc,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, dir: dir, base: "http://" + ln.Addr().String(), mc: mc, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("service not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener, waits for the handlers, then drains the job
// manager, which folds the workers' collectors into s.mc.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a handler still running past 30s is cut off below
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "service: serve: %v\n", err)
	}
	s.srv.Close(30 * time.Second)
}

// serviceRefs is every trace service jobs replay: each program's full
// train input (the profile always reads it) and its scaled inputs.
func serviceRefs() []traceRef {
	var refs []traceRef
	for _, w := range workload.All() {
		refs = append(refs, traceRef{w, w.Train()})
		for _, in := range benchsuite.ScaledInputs(w, serviceScale) {
			refs = append(refs, traceRef{w, in})
		}
	}
	return refs
}

// serviceRequest is one distinct request: a kind on a program.
type serviceRequest struct {
	kind     server.JobKind
	workload string
}

func (r serviceRequest) key() string { return string(r.kind) + " " + r.workload }

// serviceReferences renders every distinct request's expected result
// bytes from a direct, live core.RunExperiment with the options the
// server derives, and returns them with the average test reduction.
func serviceReferences() (map[string][]byte, float64, error) {
	want := map[string][]byte{}
	var cmps []*core.Comparison
	for _, w := range workload.All() {
		opts := sim.DefaultOptions()
		opts.Parallelism = parallel
		cmp, err := core.RunExperiment(core.Experiment{
			Workload: w, Options: opts, Inputs: benchsuite.ScaledInputs(w, serviceScale),
		})
		if err != nil {
			return nil, 0, err
		}
		cmps = append(cmps, cmp)
		var eval bytes.Buffer
		if err := report.WriteJSON(&eval, []*core.Comparison{cmp}); err != nil {
			return nil, 0, err
		}
		want[serviceRequest{server.KindEval, w.Name()}.key()] = eval.Bytes()
		place, err := renderPlacement(cmp)
		if err != nil {
			return nil, 0, err
		}
		want[serviceRequest{server.KindPlace, w.Name()}.key()] = place
	}
	return want, benchsuite.AvgReduction(cmps, "test"), nil
}

// renderPlacement is the place-job result document: the placement map
// resolved against the profile's node names, as indented JSON with a
// trailing newline.
func renderPlacement(cmp *core.Comparison) ([]byte, error) {
	type globalSlot struct {
		Name    string `json:"name"`
		Offset  int64  `json:"offset"`
		Size    int64  `json:"size"`
		Popular bool   `json:"popular,omitempty"`
	}
	type merge struct {
		A          int    `json:"a"`
		B          int    `json:"b"`
		Weight     uint64 `json:"weight"`
		ChosenLine int    `json:"chosenLine"`
		Members    int    `json:"members"`
	}
	type plan struct {
		Workload          string       `json:"workload"`
		Globals           []globalSlot `json:"globals"`
		SegmentBytes      int64        `json:"segmentBytes"`
		SegmentStart      uint64       `json:"segmentStart"`
		StackStart        uint64       `json:"stackStart"`
		HeapPlans         int          `json:"heapPlans"`
		Bins              int          `json:"bins"`
		PredictedConflict uint64       `json:"predictedConflict"`
		Merges            []merge      `json:"merges,omitempty"`
	}
	g := cmp.Profile.Profile.Graph
	pm := cmp.Placement
	p := plan{
		Workload:          cmp.Workload.Name(),
		Globals:           make([]globalSlot, len(pm.GlobalLayout)),
		SegmentBytes:      pm.GlobalSegSize,
		SegmentStart:      uint64(pm.GlobalSegStart),
		StackStart:        uint64(pm.StackStart),
		HeapPlans:         len(pm.HeapPlans),
		Bins:              pm.NumBins,
		PredictedConflict: pm.PredictedConflict,
	}
	for i, slot := range pm.GlobalLayout {
		gs := globalSlot{Offset: slot.Offset, Size: slot.Size}
		if slot.Node != trg.NoNode {
			n := g.Node(slot.Node)
			gs.Name, gs.Popular = n.Name, n.Popular
		}
		p.Globals[i] = gs
	}
	for _, step := range pm.MergeLog {
		p.Merges = append(p.Merges, merge{step.A, step.B, step.Weight, step.ChosenLine, step.Members})
	}
	data, err := json.MarshalIndent(p, "", "  ")
	return append(data, '\n'), err
}

// schedule builds n jobs over window from src: Poisson arrivals (n
// arrival times drawn uniformly over the window, which is a Poisson
// process conditioned on its count) and requests in shuffled rounds of
// 27 — every program's eval twice and its place once — so the mix is
// exactly 2:1 eval:place over all nine programs.
func schedule(src *rng.Source, n int, window time.Duration) []Job {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(src.Float64() * float64(window))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	var round []serviceRequest
	for _, name := range workload.Names() {
		round = append(round,
			serviceRequest{server.KindEval, name},
			serviceRequest{server.KindEval, name},
			serviceRequest{server.KindPlace, name})
	}
	jobs := make([]Job, 0, n)
	for len(jobs) < n {
		src.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, r := range round {
			if len(jobs) == n {
				break
			}
			body, _ := json.Marshal(server.JobRequest{Kind: r.kind, Workload: r.workload, Scale: serviceScale})
			jobs = append(jobs, Job{Due: due[len(jobs)], Body: body, Key: r.key()})
		}
	}
	return jobs
}

// runService measures ccdpd under open-loop load: Poisson arrivals at
// serviceRate over --seconds, two connections, each job submitted with
// ?wait=true and its result fetched and byte-checked.
func runService(e *env) (int, int, error) {
	refs := serviceRefs()
	var recorded *metrics.Collector
	var records []time.Duration
	svc, _, err := measureSetup(e, func(dir string) (*service, error) {
		recorded = metrics.New()
		start := time.Now()
		if err := recordTraces(dir, refs, recorded); err != nil {
			return nil, err
		}
		records = append(records, time.Since(start))
		return bootService(dir)
	}, func(s *service) { s.stop() })
	if err != nil {
		return 0, 0, err
	}
	stopped := false
	defer func() {
		if !stopped {
			svc.stop()
		}
	}()

	want, reduction, err := serviceReferences()
	if err != nil {
		return 0, 0, fmt.Errorf("reference: %w", err)
	}

	// One schedule of serviceRate x --seconds jobs. A traced run traces
	// every other job, so the untraced half of the same schedule is the
	// baseline its tracing overhead is measured against.
	jobs := schedule(rng.New(e.seed^0x5e41ce), int(math.Round(serviceRate*e.seconds.Seconds())), e.seconds)
	var tr *Tracer
	gen := NewGenerator(svc.base, parallel, nil)
	if e.traced {
		tr = NewTracer()
		gen.Tracer, gen.TraceEvery = tr, 2
	}
	outs := gen.Run(context.Background(), jobs)
	gen.Close()
	failed := 0
	for i := range outs {
		o := &outs[i]
		if o.Err == nil && !bytes.Equal(o.Result, want[jobKey(o)]) {
			o.Err = fmt.Errorf("job %s (%s): served result differs from the direct run", o.Status.ID, jobKey(o))
		}
		if o.Err != nil {
			failed++
			if failed <= 3 {
				e.report.note("check failed: %v", o.Err)
			}
		}
	}
	st := summarize(outs, serviceLimit)
	e.report.note("job_p50_ms %.6f ms, job_p95_ms %.6f ms over n=%d jobs at %.1f jobs/s", ms(st.P50), ms(st.P95), st.Offered, serviceRate)
	e.report.note("slo_goodput_frac %.6f (limit %s), generator late p95 %.3f ms", st.Goodput(), serviceLimit, ms(st.LateP95))
	e.report.note("test_reduction_pct %.4f %% (nine programs at scale %g)", reduction, serviceScale)
	if !e.traced {
		e.report.set("op_p50_ms", ms(st.P50), "ms")
		e.report.set("test_reduction_pct", reduction, "%")
		return len(outs), failed, nil
	}

	svc.stop()
	stopped = true
	costs, err := decodeAll(tr, 0, svc.dir, refs)
	if err != nil {
		return len(outs), failed, err
	}
	l := serviceLayers(outs, st, costs, svc.mc)
	if err := setupLayers(l, refs, records, recorded); err != nil {
		return len(outs), failed, err
	}
	var traced, untraced []Outcome
	for i := range outs {
		if i%2 == 0 {
			traced = append(traced, outs[i])
		} else {
			untraced = append(untraced, outs[i])
		}
	}
	l["tracing.overhead_ms"] = ms(summarize(traced, serviceLimit).P50) - ms(summarize(untraced, serviceLimit).P50)
	l.publish(e.report)
	return len(outs), failed, e.writeSpans(tr)
}

// jobKey recovers an outcome's request key from its status.
func jobKey(o *Outcome) string {
	return serviceRequest{o.Status.Kind, o.Status.Workload}.key()
}

// serviceLayers derives the service's per-layer values, per job: the
// server's collector (folded at shutdown) gives the counters and stage
// totals, and the job-status timestamps split each job's time into
// queueing, running and HTTP/JSON overhead.
func serviceLayers(all []Outcome, st loadStats, costs map[string]decodeCost, mc *metrics.Collector) layers {
	l := layers{}
	jobs := len(all)
	counterLayers(l, mc, jobs)

	// Each job profiles its program's full train trace once and runs
	// four eval passes over the scaled train and test traces.
	var profDecode, evalDecode time.Duration
	var profiled uint64
	for i := range all {
		w, err := workload.Get(all[i].Status.Workload)
		if err != nil {
			continue
		}
		train := costs[traceRef{w, w.Train()}.String()]
		profDecode += train.wall
		profiled += train.refs
		for _, in := range benchsuite.ScaledInputs(w, serviceScale) {
			evalDecode += 2 * costs[traceRef{w, in}.String()].wall
		}
	}
	perJob := func(d time.Duration) float64 { return d.Seconds() / float64(jobs) }
	profSelf := mc.StageTotal(metrics.StageProfile) - profDecode
	evalSelf := mc.StageTotal(metrics.StageEval) - evalDecode
	l["trace.decode_s"] = perJob(profDecode + evalDecode)
	l["trace.ns_per_event"] = nsPerEvent(costs)
	l["profile.self_s"] = perJob(profSelf)
	l["profile.refs"] = perOp(profiled, jobs)
	l["profile.ns_per_ref"] = nsPer(profSelf, float64(profiled))
	l["placement.s"] = perJob(mc.StageTotal(metrics.StagePlace))
	l["sim.eval_self_s"] = perJob(evalSelf)
	l["sim.ns_per_access"] = nsPer(evalSelf, float64(mc.Get(metrics.SimAccesses)))
	l["server.rejected"] = float64(mc.Get(metrics.ServerJobsRejected))

	var queue, run, overhead []time.Duration
	var busy time.Duration
	first, last := all[0].Due, all[0].Done
	for i := range all {
		o := &all[i]
		if o.Due.Before(first) {
			first = o.Due
		}
		if o.Done.After(last) {
			last = o.Done
		}
		if o.Err != nil {
			continue
		}
		s := o.Status
		queue = append(queue, time.Duration(s.StartedNs-s.SubmittedNs))
		run = append(run, time.Duration(s.DoneNs-s.StartedNs))
		overhead = append(overhead, o.Done.Sub(o.Sent)-time.Duration(s.DoneNs-s.SubmittedNs))
		busy += time.Duration(s.DoneNs - s.StartedNs)
	}
	l["server.queue_ms_p50"] = ms(percentile(queue, 0.5))
	l["server.run_ms_p50"] = ms(percentile(run, 0.5))
	l["server.run_ms_p95"] = ms(percentile(run, 0.95))
	l["server.overhead_ms_p50"] = ms(percentile(overhead, 0.5))
	l["exec.busy_frac"] = float64(busy) / float64(time.Duration(parallel)*last.Sub(first))
	l["load.late_ms_p95"] = ms(st.LateP95)
	l["load.job_p95_ms"] = ms(st.P95)
	l["load.slo_goodput_frac"] = st.Goodput()
	return l
}
