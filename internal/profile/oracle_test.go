package profile_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/persist"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordTrain records w's train input, its bursts scaled by frac, as an
// in-memory trace.
func recordTrain(tb testing.TB, w workload.Workload, frac float64) []byte {
	tb.Helper()
	in := w.Train()
	in.Bursts = max(1, int(float64(in.Bursts)*frac))
	var buf bytes.Buffer
	if err := sim.RecordTrace(w, in, &buf, sim.DefaultOptions()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// shape drives a deterministic synthetic reference stream. Each shape
// declares all its globals before its first reference.
type shape struct {
	name string
	run  func(tbl *object.Table, em *trace.Emitter)
}

// lcg is a tiny deterministic generator for skewed-but-reproducible
// offsets; math/rand would work too, this keeps the streams self-evident.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 33)
}

// shapes are stream patterns the paper's programs exercise only thinly.
var shapes = []shape{
	{
		// Alternation-heavy traffic over small globals: maximal queue
		// churn, every touch re-finds its key and scans past the others.
		name: "alternation",
		run: func(tbl *object.Table, em *trace.Emitter) {
			var gs []object.ID
			for i := 0; i < 8; i++ {
				gs = append(gs, tbl.AddGlobal(fmt.Sprintf("g%d", i), 64))
			}
			for i := 0; i < 4000; i++ {
				em.Load(gs[i%8], 0, 8)
				em.Store(gs[(i*3+1)%8], 8, 8)
				if i%5 == 0 {
					em.Load(object.StackID, int64(i%512), 8)
				}
			}
		},
	},
	{
		// Large chunk-spanning objects with a skewed access pattern:
		// exercises multi-chunk expansion and partial tail chunks.
		name: "spanning",
		run: func(tbl *object.Table, em *trace.Emitter) {
			bigA := tbl.AddGlobal("bigA", 4096+40) // 17 chunks, short tail
			bigB := tbl.AddGlobal("bigB", 2048)
			small := tbl.AddGlobal("small", 96)
			var r lcg = 42
			for i := 0; i < 3000; i++ {
				em.Load(bigA, int64(r.next()%3600), int64(16+r.next()%500))
				if i%3 == 0 {
					em.Store(bigB, int64(r.next()%1984), 64)
				}
				if i%2 == 0 {
					em.Load(small, 0, 8)
				}
			}
		},
	},
	{
		// Heap churn: allocs and frees interleaved with loads, multiple
		// XOR names, one name with concurrently-live instances. Allocs
		// flush the emitter ring, so references arrive in short batches
		// between unbatched HandleEvent allocs and frees.
		name: "heapchurn",
		run: func(tbl *object.Table, em *trace.Emitter) {
			g := tbl.AddGlobal("anchor", 256)
			var r lcg = 7
			for i := 0; i < 600; i++ {
				xor := uint64(0xBEEF + i%4)
				h := em.Malloc("h", 128+int64(i%3)*256, xor)
				h2 := em.Malloc("h2", 512, 0xF00D) // concurrent with h
				for j := 0; j < 4; j++ {
					em.Load(h, int64(r.next()%120), 8)
					em.Store(h2, int64(r.next()%496), 16)
					em.Load(g, 0, 8)
				}
				em.Free(h)
				em.Free(h2)
			}
		},
	},
}

// recordShape records a synthetic shape as an in-memory trace. The header
// is written from the table when the first event arrives, by which point
// the shape has declared every global.
func recordShape(tb testing.TB, sh shape) []byte {
	tb.Helper()
	tbl := object.NewTable(1024)
	var buf bytes.Buffer
	var tw *trace.Writer
	em := trace.NewEmitter(tbl, trace.HandlerFunc(func(ev trace.Event) {
		if tw == nil {
			hdr := trace.FileHeader{StackSize: 1024}
			tbl.ForEach(func(in *object.Info) {
				if in.Category == object.Global {
					hdr.Globals = append(hdr.Globals, trace.Decl{Name: in.Name, Size: in.Size})
				}
			})
			var err error
			if tw, err = trace.NewWriter(&buf, hdr, tbl); err != nil {
				tb.Fatal(err)
			}
		}
		tw.HandleEvent(ev)
	}))
	sh.run(tbl, em)
	em.Flush()
	if err := tw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// builder is what the differential test drives: every profiler variant
// plus the oracle consume a trace and finish into a profile.
type builder interface {
	trace.Handler
	Finish() *profile.Profile
}

// replay drives a fresh builder from newB over the recorded trace.
func replay(tb testing.TB, raw []byte, newB func(*object.Table) builder) *profile.Profile {
	tb.Helper()
	src, err := sim.OpenReplay(bytes.NewReader(raw), sim.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	b := newB(src.Objects())
	if err := src.Drive(b); err != nil {
		tb.Fatal(err)
	}
	return b.Finish()
}

// recCollector enriches a replay into profile.Recs exactly as the sweep
// engine's decoder side does: per-object Info snapshots taken at first
// appearance, and the live-XOR-collision fact at each Alloc.
type recCollector struct {
	objs  *object.Table
	infos []*object.Info
	recs  []profile.Rec
}

func (c *recCollector) HandleEvent(ev trace.Event) {
	for int(ev.Obj) >= len(c.infos) {
		c.infos = append(c.infos, nil)
	}
	in := c.infos[ev.Obj]
	if in == nil {
		cp := *c.objs.Get(ev.Obj)
		in = &cp
		c.infos[ev.Obj] = in
	}
	r := profile.Rec{Kind: ev.Kind, Obj: ev.Obj, Off: ev.Off, Size: ev.Size, Info: in}
	switch ev.Kind {
	case trace.Alloc:
		r.NonUnique = c.objs.LiveWithXOR(in.XORName) > 1
	case trace.Free:
		r.Size = in.Size
	}
	c.recs = append(c.recs, r)
}

// collectRecs replays raw into enriched records; it returns them with the
// replay's object table.
func collectRecs(tb testing.TB, raw []byte) ([]profile.Rec, *object.Table) {
	tb.Helper()
	src, err := sim.OpenReplay(bytes.NewReader(raw), sim.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	c := &recCollector{objs: src.Objects()}
	if err := src.Drive(c); err != nil {
		tb.Fatal(err)
	}
	return c.recs, c.objs
}

// recBatch is the sweep's broadcast batch size.
const recBatch = 4096

func feedRecs(p interface{ HandleRecs([]profile.Rec) }, recs []profile.Rec) {
	for lo := 0; lo < len(recs); lo += recBatch {
		p.HandleRecs(recs[lo:min(lo+recBatch, len(recs))])
	}
}

func profileBytes(tb testing.TB, p *profile.Profile) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := persist.WriteProfile(&buf, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

var oracleCounters = []metrics.Counter{metrics.TRGWeight, metrics.TRGEdges, metrics.QueueEvictions}

// TestKernelMatchesReference is the queue-step kernel's differential
// gate: on every workload's train trace and on three synthetic stream
// shapes, across chunk sizes, queue thresholds and time sampling, the
// Profiler — fed batched events, single events, and enriched records as
// the sweep feeds it — must persist byte-identical profiles to the
// map-and-pointer reference, report its TRG and eviction counters
// exactly, and report one scan-length observation per reference scan with
// the same total length.
func TestKernelMatchesReference(t *testing.T) {
	frac := 0.04
	if testing.Short() || profile.RaceEnabled {
		frac = 0.01
	}
	type input struct {
		name   string
		record func(t *testing.T) []byte
	}
	var inputs []input
	for _, w := range workload.All() {
		inputs = append(inputs, input{w.Name(), func(t *testing.T) []byte { return recordTrain(t, w, frac) }})
	}
	for _, sh := range shapes {
		inputs = append(inputs, input{sh.name, func(t *testing.T) []byte { return recordShape(t, sh) }})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			raw := in.record(t)
			recs, _ := collectRecs(t, raw)
			for _, chunk := range []int64{64, 256} {
				for _, queue := range []int64{8 << 10, 32 << 10} {
					for _, sampled := range []bool{false, true} {
						cfg := profile.DefaultConfig(queue / 2)
						cfg.ChunkSize = chunk
						if sampled {
							cfg.SampleWindow, cfg.SamplePeriod = 3, 7
						}
						label := fmt.Sprintf("chunk=%d/queue=%d/sampled=%v", chunk, queue, sampled)
						checkAgainstReference(t, label, cfg, raw, recs)
					}
				}
			}
		})
	}
}

// unbatched hides the Profiler's HandleBatch, so a replay delivers every
// reference through HandleEvent.
type unbatched struct{ p *profile.Profiler }

func (u unbatched) HandleEvent(ev trace.Event) { u.p.HandleEvent(ev) }
func (u unbatched) Finish() *profile.Profile   { return u.p.Finish() }

func checkAgainstReference(t *testing.T, label string, cfg profile.Config, raw []byte, recs []profile.Rec) {
	t.Helper()
	refCfg := cfg
	refCfg.Metrics = metrics.New()
	var ref *profile.Reference
	want := profileBytes(t, replay(t, raw, func(objs *object.Table) builder {
		r, err := profile.NewReference(refCfg, objs)
		if err != nil {
			t.Fatal(err)
		}
		ref = r
		return r
	}))
	if refCfg.Metrics.Get(metrics.TRGWeight) == 0 {
		t.Fatalf("%s: reference recorded no edges", label)
	}

	type variant struct {
		name string
		run  func(cfg profile.Config) *profile.Profile
	}
	variants := []variant{
		{"profiler", func(cfg profile.Config) *profile.Profile {
			return replay(t, raw, func(objs *object.Table) builder {
				p, err := profile.New(cfg, objs)
				if err != nil {
					t.Fatal(err)
				}
				return p
			})
		}},
		{"profiler/events", func(cfg profile.Config) *profile.Profile {
			return replay(t, raw, func(objs *object.Table) builder {
				p, err := profile.New(cfg, objs)
				if err != nil {
					t.Fatal(err)
				}
				return unbatched{p}
			})
		}},
		{"profiler/recs", func(cfg profile.Config) *profile.Profile {
			_, objs := collectRecs(t, raw)
			p, err := profile.New(cfg, objs)
			if err != nil {
				t.Fatal(err)
			}
			feedRecs(p, recs)
			return p.Finish()
		}},
	}
	for _, v := range variants {
		vcfg := cfg
		vcfg.Metrics = metrics.New()
		got := profileBytes(t, v.run(vcfg))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s/%s: persisted profile differs from the reference (%d vs %d bytes)",
				label, v.name, len(got), len(want))
		}
		for _, ctr := range oracleCounters {
			if g, w := vcfg.Metrics.Get(ctr), refCfg.Metrics.Get(ctr); g != w {
				t.Fatalf("%s/%s: counter %v = %d, reference %d", label, v.name, ctr, g, w)
			}
		}
		h, _ := vcfg.Metrics.Snapshot().Hist(metrics.HistScanLen.String())
		if h.Count != ref.Scans || h.Sum != ref.ScanSteps {
			t.Fatalf("%s/%s: scan_len histogram count %d sum %d, reference scanned %d hits over %d entries",
				label, v.name, h.Count, h.Sum, ref.Scans, ref.ScanSteps)
		}
	}
}

// sinkProfile keeps BenchmarkProfileTrain's result live.
var sinkProfile *profile.Profile

// BenchmarkProfileTrain profiles gcc's train input — the profile-sweep
// workload's program, at a fifth of its bursts — from enriched records
// held in memory, so the timing covers the profiler alone (binding, chunk
// expansion, the queue-step kernel and symmetrization) and no decode. It
// reports ns per profiled reference next to allocs/op.
func BenchmarkProfileTrain(b *testing.B) {
	w, err := workload.Get("gcc")
	if err != nil {
		b.Fatal(err)
	}
	recs, objs := collectRecs(b, recordTrain(b, w, 0.2))
	var refs int
	for i := range recs {
		if recs[i].Kind == trace.Load || recs[i].Kind == trace.Store {
			refs++
		}
	}
	cfg := sim.DefaultOptions().Profile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := profile.New(cfg, objs)
		if err != nil {
			b.Fatal(err)
		}
		feedRecs(p, recs)
		sinkProfile = p.Finish()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(refs), "ns/ref")
}
