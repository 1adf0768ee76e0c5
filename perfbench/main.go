// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process against the in-tree pipeline, checks every output
// against a reference computed at set-up, and prints one JSON result line:
//
//	go run . --workload paper-suite --seed 1 --seconds 34 --trace 0
//
// Workloads: paper-suite (the paper's nine-program experiment replayed
// from a warm trace store), profile-sweep (a gcc profiling-knob grid on
// the decode-once sweep engine) and service-mix (ccdpd jobs driven by an
// open-loop generator). With --trace 1 the run is split in two halves,
// untraced then traced, and reports per-layer metrics and the tracing
// overhead instead of the end-to-end metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/rng"
)

// parallel is every workload's worker budget: the -parallel setting of the
// CLIs, sized to the two CPUs the benchmark is tuned on.
const parallel = 2

// A run sets its workload up from an empty store at least setupReps
// times and until setupMin has passed, at most setupMaxReps times;
// setup_s reports the median. Short set-ups get more repetitions.
const (
	setupReps    = 5
	setupMin     = 2 * time.Second
	setupMaxReps = 25
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runner receives.
type env struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// work is a private scratch directory (trace stores) removed at exit.
	work string
	// report collects the run's metrics and human-readable lines.
	report *sheet
	// spans is where a traced run writes its spans.
	spans string
}

// writeSpans writes the traced run's spans as JSON.
func (e *env) writeSpans(tr *Tracer) error {
	if err := os.MkdirAll(filepath.Dir(e.spans), 0o755); err != nil {
		return err
	}
	e.report.note("spans written to %s", e.spans)
	return tr.WriteFile(e.spans)
}

// sheet accumulates metrics in the order they are set, for the
// human-readable lines, and the map the JSON line carries.
type sheet struct {
	names   []string
	metrics map[string]metric
	notes   []string
}

func newSheet() *sheet { return &sheet{metrics: map[string]metric{}} }

// set records a metric under name.
func (r *sheet) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records an informational line (printed, not in the JSON metrics).
func (r *sheet) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runner is one workload: it fills env.report with the metrics of the
// selected mode and returns the operations attempted and failed.
type runner func(e *env) (attempted, failed int, err error)

var runners = map[string]runner{
	"paper-suite":   runSuite,
	"profile-sweep": runSweep,
	"service-mix":   runService,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-suite, profile-sweep or service-mix")
		seed    = flag.Uint64("seed", 0, "workload seed (0 = the repository's own inputs)")
		seconds = flag.Int("seconds", 34, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	run, ok := runners[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {paper-suite|profile-sweep|service-mix} --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	res, err := execute(run, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload in a private scratch directory under
// .bench_build/ and prints its human-readable lines; the caller prints the
// JSON line.
func execute(run runner, name string, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	const base = ".bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{
		seed: seed, seconds: seconds, traced: traced, work: work, report: newSheet(),
		spans: filepath.Join(base, "spans", fmt.Sprintf("%s-seed%d.json", name, seed)),
	}
	attempted, failed, err := run(e)
	if err != nil {
		return nil, err
	}
	if attempted < 1 {
		return nil, errors.New("no operation completed in the measured window")
	}
	if !traced {
		e.report.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", name, seed, seconds.Seconds(), traced)
	for _, n := range e.report.notes {
		fmt.Println(n)
	}
	for _, n := range e.report.names {
		m := e.report.metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-28s %14d/%d (failed_frac %g)\n", "failed/attempted", failed, attempted, float64(failed)/float64(attempted))
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: e.report.metrics}, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// deriveSeed maps the benchmark seed onto an input seed: seed 0 keeps the
// repository's own input, any other seed draws a fresh one.
func deriveSeed(base, seed uint64) uint64 {
	if seed == 0 {
		return base
	}
	return rng.New(base ^ seed*0x9e3779b97f4a7c15).Uint64()
}

// measureSetup runs setup repeatedly (see setupReps), each time into a
// fresh directory under e.work, reports the median as setup_s, and returns
// the last set-up's result (the one the measured phase uses) with every
// set-up's duration. Every earlier set-up is torn down before the next
// one starts.
func measureSetup[T any](e *env, setup func(dir string) (T, error), teardown func(T)) (T, []time.Duration, error) {
	var (
		last  T
		times []time.Duration
		spent time.Duration
	)
	for i := 0; ; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return last, nil, err
		}
		start := time.Now()
		v, err := setup(dir)
		if err != nil {
			return last, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start))
		spent += times[i]
		last = v
		if i+1 >= setupMaxReps || (i+1 >= setupReps && spent >= setupMin) {
			break
		}
		teardown(v)
		if err := os.RemoveAll(dir); err != nil {
			return last, nil, err
		}
	}
	e.report.set("setup_s", median(times).Seconds(), "s")
	return last, times, nil
}

// timedLoop runs op back to back until d has elapsed (at least once) and
// returns the durations op reports. A garbage collection before each call
// keeps one operation's garbage from being collected on the next one's
// time.
func timedLoop(d time.Duration, op func() (time.Duration, error)) ([]time.Duration, error) {
	var lat []time.Duration
	start := time.Now()
	for len(lat) == 0 || time.Since(start) < d {
		runtime.GC()
		t, err := op()
		if err != nil {
			return lat, err
		}
		lat = append(lat, t)
	}
	return lat, nil
}

// median returns the middle duration (mean of the two middle ones for an
// even count); zero for none.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianFloat is median for plain numbers.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1); zero for
// none.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// spread renders a sample's count and quartiles for a note line.
func spread(ds []time.Duration) string {
	return fmt.Sprintf("n=%d min %.3f p25 %.3f p50 %.3f p75 %.3f max %.3f ms", len(ds),
		ms(percentile(ds, 0)), ms(percentile(ds, 0.25)), ms(percentile(ds, 0.5)), ms(percentile(ds, 0.75)), ms(percentile(ds, 1)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perLayerNames is every per-layer metric, in report order. A traced run
// sets each one; a layer the workload never reaches reports zero.
var perLayerNames = []struct{ name, unit string }{
	{"workload.gen_s", "s"}, {"store.record_s", "s"}, {"store.bytes_written", "B"},
	{"trace.decode_s", "s"}, {"trace.events", "count"}, {"trace.ns_per_event", "ns"}, {"store.bytes_read", "B"},
	{"profile.self_s", "s"}, {"profile.refs", "count"}, {"profile.ns_per_ref", "ns"},
	{"trg.weight", "count"}, {"trg.edges", "count"}, {"profile.queue_evictions", "count"},
	{"placement.s", "s"}, {"place.phase6_merge_s", "s"}, {"place.phase8_heap_plans_s", "s"}, {"placement.merges", "count"},
	{"sim.eval_self_s", "s"}, {"sim.accesses", "count"}, {"sim.misses", "count"}, {"sim.ns_per_access", "ns"},
	{"sweep.prep_s", "s"}, {"sweep.run_s", "s"}, {"sweep.decode_s", "s"}, {"sweep.groups", "count"}, {"sweep.peak_prep_bytes", "B"},
	{"exec.busy_frac", "fraction"},
	{"server.queue_ms_p50", "ms"}, {"server.run_ms_p50", "ms"}, {"server.run_ms_p95", "ms"},
	{"server.overhead_ms_p50", "ms"}, {"server.rejected", "count"},
	{"load.late_ms_p95", "ms"}, {"load.job_p95_ms", "ms"}, {"load.slo_goodput_frac", "fraction"},
	{"tracing.overhead_ms", "ms"},
}

// layers holds a traced run's per-layer values by name.
type layers map[string]float64

// publish writes every per-layer metric into the report, zero for the
// layers this workload does not reach.
func (l layers) publish(r *sheet) {
	for _, m := range perLayerNames {
		r.set(m.name, l[m.name], m.unit)
	}
	for n := range l {
		if !knownLayer(n) {
			panic("perfbench: unlisted per-layer metric " + n)
		}
	}
}

func knownLayer(name string) bool {
	for _, m := range perLayerNames {
		if m.name == name {
			return true
		}
	}
	return false
}

// perOp divides a counter total over n operations.
func perOp(total uint64, n int) float64 { return float64(total) / float64(n) }

// nsPer divides a duration by a count, in nanoseconds; zero for none.
func nsPer(d time.Duration, n float64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / n
}
