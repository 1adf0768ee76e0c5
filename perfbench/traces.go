package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceRef names one recorded event stream: a workload on one input.
type traceRef struct {
	w  workload.Workload
	in workload.Input
}

func (r traceRef) String() string {
	return fmt.Sprintf("%s/%s/%d", r.w.Name(), r.in.Label, r.in.Bursts)
}

// storeConfig is the trace configuration every measured pass runs with: a
// warm store that must not fall back to recording.
func storeConfig(dir string) sim.TraceConfig {
	return sim.TraceConfig{Dir: dir, RequireRecorded: true}
}

// recordTraces records refs into an empty store at dir on parallel
// workers, the way a cold `-trace-dir` run fills the store on first
// contact. mc receives the store's byte accounting.
func recordTraces(dir string, refs []traceRef, mc *metrics.Collector) error {
	opts := sim.DefaultOptions()
	tasks := make([]exec.Task[struct{}], len(refs))
	for i, ref := range refs {
		tasks[i] = func(_ context.Context, wmc *metrics.Collector) (struct{}, error) {
			src, err := sim.NewTraceStore(sim.TraceConfig{Dir: dir}, ref.w, wmc).Open(ref.in, opts)
			if err != nil {
				return struct{}{}, fmt.Errorf("recording %s: %w", ref, err)
			}
			return struct{}{}, src.Close()
		}
	}
	_, err := exec.Map(context.Background(), parallel, mc, tasks)
	return err
}

// generate runs the live model for every ref into a handler that only
// counts, on parallel workers: the workload layer's cost with no
// recording behind it.
func generate(refs []traceRef) (time.Duration, error) {
	opts := sim.DefaultOptions()
	tasks := make([]exec.Task[struct{}], len(refs))
	for i, ref := range refs {
		tasks[i] = func(context.Context, *metrics.Collector) (struct{}, error) {
			var n eventCount
			return struct{}{}, sim.Live(ref.w, ref.in, opts).Drive(&n)
		}
	}
	start := time.Now()
	_, err := exec.Map(context.Background(), parallel, nil, tasks)
	return time.Since(start), err
}

// eventCount is the cheapest complete consumer of a stream: it counts
// events and data references and does nothing else.
type eventCount struct{ events, refs uint64 }

func (c *eventCount) HandleEvent(ev trace.Event) {
	c.events++
	if ev.Kind == trace.Load || ev.Kind == trace.Store {
		c.refs++
	}
}

func (c *eventCount) HandleBatch(evs []trace.Event) {
	for i := range evs {
		c.HandleEvent(evs[i])
	}
}

// decodeCost is one decode-only replay of a stored trace.
type decodeCost struct {
	wall   time.Duration
	events uint64
	refs   uint64
}

// decodeOnly replays ref's stored trace through trace.Reader.Replay into
// a counting handler. The Replay call is the decompression and decode a
// replayed pass pays inside its own span (opening the entry and parsing
// its header happen before a pass starts), so the cost is that call's
// time; the outer span also covers the open.
func decodeOnly(tr *Tracer, parent, req int, dir string, ref traceRef) (decodeCost, error) {
	opts := sim.DefaultOptions()
	span := tr.Begin("decode", ref.String(), parent, req)
	defer tr.End(span)
	key := sim.NewTraceStore(sim.TraceConfig{Dir: dir}, ref.w, nil).Key(ref.in, opts)
	rc, ok, err := store.New(store.Config{Dir: dir}).Get(key)
	if err != nil {
		return decodeCost{}, err
	}
	if !ok {
		return decodeCost{}, fmt.Errorf("trace %s not in the store", ref)
	}
	defer rc.Close()
	rd, err := trace.NewReaderSize(rc, sim.ReplayBufferSize)
	if err != nil {
		return decodeCost{}, err
	}
	var n eventCount
	replay := tr.Begin("trace.replay", ref.String(), span, req)
	start := time.Now()
	err = rd.Replay(&n)
	wall := time.Since(start)
	tr.End(replay)
	if err != nil {
		return decodeCost{}, fmt.Errorf("decoding %s: %w", ref, err)
	}
	return decodeCost{wall: wall, events: n.events, refs: n.refs}, nil
}

// decodeAll times one decode-only replay of every ref, sequentially so
// the replays do not contend with each other.
func decodeAll(tr *Tracer, req int, dir string, refs []traceRef) (map[string]decodeCost, error) {
	root := tr.Begin("decode-only", "", 0, req)
	defer tr.End(root)
	out := make(map[string]decodeCost, len(refs))
	for _, ref := range refs {
		c, err := decodeOnly(tr, root, req, dir, ref)
		if err != nil {
			return nil, err
		}
		out[ref.String()] = c
	}
	return out, nil
}

// nsPerEvent is the decode-only cost per event over a set of replays.
func nsPerEvent(costs map[string]decodeCost) float64 {
	var wall time.Duration
	var events uint64
	for _, c := range costs {
		wall += c.wall
		events += c.events
	}
	return nsPer(wall, float64(events))
}
