package metrics

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	c := New()
	c.Add(TraceEvents, 3)
	c.Add(TraceEvents, 2)
	c.Add(SimMisses, 7)
	if got := c.Get(TraceEvents); got != 5 {
		t.Errorf("TraceEvents = %d, want 5", got)
	}
	if got := c.Get(SimMisses); got != 7 {
		t.Errorf("SimMisses = %d, want 7", got)
	}
	if got := c.Get(TRGEdges); got != 0 {
		t.Errorf("untouched counter = %d, want 0", got)
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Add(TraceEvents, 1)
				c.Observe(HistAccessSize, 8)
				c.AddNamed("sim.hits.natural", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get(TraceEvents); got != workers*per {
		t.Errorf("TraceEvents = %d, want %d", got, workers*per)
	}
	if got := c.GetNamed("sim.hits.natural"); got != workers*per {
		t.Errorf("named = %d, want %d", got, workers*per)
	}
	if h, ok := c.Snapshot().Hist(HistAccessSize.String()); !ok || h.Count != workers*per {
		t.Errorf("hist count = %d, want %d", h.Count, workers*per)
	}
}

func TestStageSpans(t *testing.T) {
	c := New()
	for i := 0; i < 3; i++ {
		sp := c.Start(StageProfile)
		time.Sleep(time.Millisecond)
		sp.Stop()
	}
	if got := c.StageCount(StageProfile); got != 3 {
		t.Fatalf("StageCount = %d, want 3", got)
	}
	if total := c.StageTotal(StageProfile); total < 3*time.Millisecond {
		t.Errorf("StageTotal = %v, want >= 3ms", total)
	}
	snap := c.Snapshot()
	st, ok := snap.Stage(StageProfile.String())
	if !ok {
		t.Fatal("profile stage missing from snapshot")
	}
	if st.MaxNanos < uint64(time.Millisecond) || st.MaxNanos > st.TotalNanos {
		t.Errorf("MaxNanos = %d outside [1ms, total=%d]", st.MaxNanos, st.TotalNanos)
	}
	if st.AvgNanos != st.TotalNanos/3 {
		t.Errorf("AvgNanos = %d, want %d", st.AvgNanos, st.TotalNanos/3)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	c := New()
	// 90 small values and 10 large ones: p50 must bound 16, p99 must
	// reach the large bucket.
	for i := 0; i < 90; i++ {
		c.Observe(HistAllocSize, 16)
	}
	for i := 0; i < 10; i++ {
		c.Observe(HistAllocSize, 4096)
	}
	h, _ := c.Snapshot().Hist(HistAllocSize.String())
	if h.Count != 100 || h.Sum != 90*16+10*4096 {
		t.Fatalf("count/sum = %d/%d", h.Count, h.Sum)
	}
	if h.P50 < 16 || h.P50 > 31 {
		t.Errorf("P50 = %d, want in [16,31]", h.P50)
	}
	if h.P99 < 4096 || h.P99 > 8191 {
		t.Errorf("P99 = %d, want in [4096,8191]", h.P99)
	}
	if h.Mean != float64(h.Sum)/100 {
		t.Errorf("Mean = %g", h.Mean)
	}
}

func TestHistogramZero(t *testing.T) {
	c := New()
	c.Observe(HistAllocSize, 0)
	h, _ := c.Snapshot().Hist(HistAllocSize.String())
	if h.P50 != 0 || h.Count != 1 {
		t.Errorf("zero-value observation: P50=%d Count=%d", h.P50, h.Count)
	}
}

// TestNilCollector exercises every method on the disabled collector: all
// must no-op without panicking.
func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Add(TraceEvents, 1)
	c.Observe(HistAllocSize, 1)
	c.AddNamed("x", 1)
	sp := c.Start(StageProfile)
	sp.Stop()
	if c.Get(TraceEvents) != 0 || c.GetNamed("x") != 0 {
		t.Error("nil collector returned nonzero")
	}
	if c.StageTotal(StageProfile) != 0 || c.StageCount(StageProfile) != 0 {
		t.Error("nil collector recorded a stage")
	}
	snap := c.Snapshot()
	if snap.Counters != nil || snap.Stages != nil || snap.Hists != nil || snap.Named != nil {
		t.Error("nil collector snapshot not empty")
	}
}

// TestDisabledCollectorZeroAllocs is the hot-path contract: with metrics
// disabled (nil collector), instrumentation must allocate nothing.
func TestDisabledCollectorZeroAllocs(t *testing.T) {
	var c *Collector
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(TraceEvents, 1)
		c.Observe(HistAccessSize, 8)
		sp := c.Start(StageEval)
		sp.Stop()
		c.AddNamed("sim.misses.natural", 1)
	}); n != 0 {
		t.Errorf("disabled collector: %v allocs/op, want 0", n)
	}
}

// TestEnabledHotOpsZeroAllocs keeps the enabled fast path (counters,
// histograms, spans) allocation-free too — only AddNamed may allocate, and
// only on first use of a key.
func TestEnabledHotOpsZeroAllocs(t *testing.T) {
	c := New()
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(TraceEvents, 1)
		c.Observe(HistAccessSize, 8)
		sp := c.Start(StageEval)
		sp.Stop()
	}); n != 0 {
		t.Errorf("enabled hot ops: %v allocs/op, want 0", n)
	}
}

func TestNames(t *testing.T) {
	for i := 0; i < NumCounters; i++ {
		if Counter(i).String() == "" || Counter(i).String() == "invalid" {
			t.Errorf("counter %d has no name", i)
		}
	}
	for i := 0; i < NumStages; i++ {
		if Stage(i).String() == "" || Stage(i).String() == "invalid" {
			t.Errorf("stage %d has no name", i)
		}
	}
	for i := 0; i < NumHists; i++ {
		if Hist(i).String() == "" || Hist(i).String() == "invalid" {
			t.Errorf("hist %d has no name", i)
		}
	}
	if Counter(-1).String() != "invalid" || Stage(NumStages).String() != "invalid" || Hist(99).String() != "invalid" {
		t.Error("out-of-range names not 'invalid'")
	}
}

func TestMergeFoldsEverything(t *testing.T) {
	dst, src := New(), New()
	dst.Add(TraceEvents, 10)
	src.Add(TraceEvents, 5)
	src.Add(TRGEdges, 3)
	dst.AddNamed("sim.misses.natural", 2)
	src.AddNamed("sim.misses.natural", 4)
	src.AddNamed("sim.misses.ccdp", 1)
	dst.Observe(HistAccessSize, 8)
	src.Observe(HistAccessSize, 8)
	src.Observe(HistAccessSize, 4096)
	sp := src.Start(StageEval)
	time.Sleep(time.Millisecond)
	sp.Stop()

	dst.Merge(src)

	if got := dst.Get(TraceEvents); got != 15 {
		t.Errorf("TraceEvents = %d, want 15", got)
	}
	if got := dst.Get(TRGEdges); got != 3 {
		t.Errorf("TRGEdges = %d, want 3", got)
	}
	if got := dst.GetNamed("sim.misses.natural"); got != 6 {
		t.Errorf("named natural = %d, want 6", got)
	}
	if got := dst.GetNamed("sim.misses.ccdp"); got != 1 {
		t.Errorf("named ccdp = %d, want 1", got)
	}
	h, _ := dst.Snapshot().Hist(HistAccessSize.String())
	if h.Count != 3 || h.Sum != 8+8+4096 {
		t.Errorf("merged histogram count/sum = %d/%d", h.Count, h.Sum)
	}
	if dst.StageCount(StageEval) != 1 || dst.StageTotal(StageEval) < time.Millisecond {
		t.Errorf("merged stage count/total = %d/%v",
			dst.StageCount(StageEval), dst.StageTotal(StageEval))
	}
	// Merging must not drain the source.
	if src.Get(TraceEvents) != 5 {
		t.Error("merge mutated the source collector")
	}
}

func TestMergeStageMaxTakesLarger(t *testing.T) {
	slow, fast := New(), New()
	for c, d := range map[*Collector]time.Duration{slow: 5 * time.Millisecond, fast: time.Millisecond} {
		sp := c.Start(StageEval)
		time.Sleep(d)
		sp.Stop()
	}
	slowSnap, _ := slow.Snapshot().Stage(StageEval.String())
	fast.Merge(slow)
	if got, _ := fast.Snapshot().Stage(StageEval.String()); got.MaxNanos != slowSnap.MaxNanos {
		t.Errorf("merged MaxNanos = %d, want the slower run's %d", got.MaxNanos, slowSnap.MaxNanos)
	}
}

func TestMergeDegenerateCases(t *testing.T) {
	var nilC *Collector
	c := New()
	c.Add(TraceEvents, 7)
	nilC.Merge(c) // must not panic
	c.Merge(nil)
	c.Merge(c) // self-merge must not double
	if got := c.Get(TraceEvents); got != 7 {
		t.Errorf("degenerate merges changed the counter to %d", got)
	}
}

// TestMergeConcurrentOppositeDirections guards the deadlock hazard: two
// collectors merging into each other simultaneously must complete.
func TestMergeConcurrentOppositeDirections(t *testing.T) {
	a, b := New(), New()
	a.AddNamed("x", 1)
	b.AddNamed("y", 1)
	done := make(chan struct{}, 2)
	go func() { a.Merge(b); done <- struct{}{} }()
	go func() { b.Merge(a); done <- struct{}{} }()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("opposite-direction merges deadlocked")
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	c := New()
	c.Add(TRGEdges, 42)
	c.AddNamed("sim.hits.ccdp", 9)
	sp := c.Start(StagePlace)
	sp.Stop()
	c.Observe(HistMergeMembers, 4)
	b, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Counter(TRGEdges.String()); !ok || v != 42 {
		t.Errorf("round-trip lost counters: %+v", back)
	}
	if v, ok := back.NamedCounter("sim.hits.ccdp"); !ok || v != 9 {
		t.Errorf("round-trip lost named counters: %+v", back)
	}
	if _, ok := back.Stage(StagePlace.String()); !ok {
		t.Error("round-trip lost stage")
	}
}

// TestSnapshotDeterministicOrder pins the satellite contract: two
// snapshots of identically-populated collectors marshal to identical
// bytes, with every section sorted by name — regardless of the insertion
// order of named counters.
func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(names []string) Snapshot {
		c := New()
		c.Add(SimMisses, 1)
		c.Add(TraceEvents, 2)
		c.Observe(HistAllocSize, 8)
		c.Observe(HistAccessSize, 8)
		for _, n := range names {
			c.AddNamed(n, 3)
		}
		sp := c.Start(StageEval)
		sp.Stop()
		snap := c.Snapshot()
		// Timings vary run to run; zero them so the byte comparison only
		// sees structure and order.
		for i := range snap.Stages {
			snap.Stages[i].TotalNanos, snap.Stages[i].AvgNanos, snap.Stages[i].MaxNanos = 0, 0, 0
		}
		return snap
	}
	a := build([]string{"zz", "aa", "mm"})
	b := build([]string{"mm", "zz", "aa"})
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("snapshots of identical state differ:\n%s\n%s", ja, jb)
	}
	for _, section := range [][]CounterSnapshot{a.Counters, a.Named} {
		for i := 1; i < len(section); i++ {
			if section[i-1].Name >= section[i].Name {
				t.Fatalf("section not sorted: %q before %q", section[i-1].Name, section[i].Name)
			}
		}
	}
}

func TestFlushHistEqualsObserve(t *testing.T) {
	direct, flushed := New(), New()
	var l LocalHist
	for i, v := range []uint64{0, 1, 7, 8, 300, 1 << 40, 5} {
		direct.Observe(HistScanLen, v)
		l.Observe(v)
		if i == 3 {
			flushed.FlushHist(HistScanLen, &l) // two flushes fold like one
		}
	}
	flushed.FlushHist(HistScanLen, &l)
	flushed.FlushHist(HistScanLen, &l) // empty: no-op
	want, _ := direct.Snapshot().Hist(HistScanLen.String())
	got, ok := flushed.Snapshot().Hist(HistScanLen.String())
	if !ok || got.Count != want.Count || got.Sum != want.Sum || got.P90 != want.P90 ||
		fmt.Sprint(got.Buckets) != fmt.Sprint(want.Buckets) {
		t.Fatalf("flushed %+v, observed %+v", got, want)
	}
	var nilC *Collector
	l.Observe(3)
	nilC.FlushHist(HistScanLen, &l) // a disabled collector discards
	if l != (LocalHist{}) {
		t.Fatal("FlushHist left observations buffered")
	}
}
