package sim

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/heapsim"
	"repro/internal/hierarchy"
	"repro/internal/layout"
	"repro/internal/object"
	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/vmpage"
	"repro/internal/workload"
)

// refResolver is the straightforward per-event resolver: each event is
// looked up in the live object table and resolved through the layout at
// the moment it arrives, with no enrichment, batching, or grouping. It is
// the evaluation kernel's reference — the kernel must reproduce it byte
// for byte.
type refResolver struct {
	objs     *object.Table
	lay      *layout.Layout
	alloc    heapsim.Allocator
	sim      simulator
	counter  *trace.Counter
	pages    *vmpage.Tracker
	heapAddr []addrspace.Addr
	clock    uint64
}

func (r *refResolver) HandleEvent(ev trace.Event) {
	if r.counter != nil {
		r.counter.HandleEvent(ev)
	}
	in := r.objs.Get(ev.Obj)
	switch ev.Kind {
	case trace.Load, trace.Store:
		r.clock++
		var base addrspace.Addr
		if in.Category == object.Heap {
			base = r.heapAddr[ev.Obj]
		} else {
			base = r.lay.Addr(in)
		}
		addr := base + addrspace.Addr(ev.Off)
		if ev.Kind == trace.Store {
			r.sim.Write(addr, ev.Size, in.Category, ev.Obj)
		} else {
			r.sim.Access(addr, ev.Size, in.Category, ev.Obj)
		}
		if r.pages != nil {
			r.pages.Touch(addr, ev.Size)
		}
	case trace.Alloc:
		addr := r.alloc.Alloc(ev.Size, in.XORName, r.clock)
		for int(ev.Obj) >= len(r.heapAddr) {
			r.heapAddr = append(r.heapAddr, 0)
		}
		r.heapAddr[ev.Obj] = addr
	case trace.Free:
		r.alloc.Free(r.heapAddr[ev.Obj], in.Size, r.clock)
	}
}

// refEval is a single-level evaluation through refResolver.
func refEval(src EventStream, heapPlace bool, kind LayoutKind, pr *ProfileResult, pm *placement.Map, opts Options, refsHint uint64) (*EvalResult, error) {
	defer src.Close()
	table := src.Objects()
	lay, alloc, err := BuildLayout(table, kind, heapPlace, pr, pm, opts)
	if err != nil {
		return nil, err
	}
	cs, err := cache.New(opts.Cache, opts.Classify)
	if err != nil {
		return nil, err
	}
	if opts.Attribution {
		cs.SetAttribution(cache.NewAttribution(opts.Cache, opts.AttributionPairs))
	}
	cs.PresizeObjects(table.Len())
	counter := trace.NewCounter(table)
	r := &refResolver{objs: table, lay: lay, alloc: alloc, sim: cs, counter: counter}
	if opts.TrackPages {
		r.pages = vmpage.NewTracker(uint64(float64(refsHint) * opts.PageWindowFrac))
	}
	if err := src.Drive(r); err != nil {
		return nil, err
	}
	res := &EvalResult{Layout: kind, Stats: cs.Stats(), Counter: counter, Objects: table, AllocStats: alloc.Stats()}
	res.ObjRefs, res.ObjMisses = cs.ObjectStats()
	res.Attribution = cs.Attribution().Stats()
	if r.pages != nil {
		res.TotalPages = r.pages.TotalPages()
		res.WorkingSet = r.pages.WorkingSet()
	}
	return res, nil
}

// refHierarchy is a hierarchy evaluation through refResolver.
func refHierarchy(src EventStream, heapPlace bool, kind LayoutKind, pr *ProfileResult, pm *placement.Map, hcfg hierarchy.Config, opts Options) (*HierarchyResult, error) {
	defer src.Close()
	table := src.Objects()
	lay, alloc, err := BuildLayout(table, kind, heapPlace, pr, pm, opts)
	if err != nil {
		return nil, err
	}
	hs, err := hierarchy.New(hcfg)
	if err != nil {
		return nil, err
	}
	if opts.Attribution {
		hs.SetAttribution(cache.NewAttribution(hcfg.L1, opts.AttributionPairs))
	}
	hs.PresizeObjects(table.Len())
	if err := src.Drive(&refResolver{objs: table, lay: lay, alloc: alloc, sim: hs}); err != nil {
		return nil, err
	}
	return &HierarchyResult{Layout: kind, Stats: hs.Stats(), Attribution: hs.Attribution().Stats()}, nil
}

// TestKernelMatchesReference is the kernel's differential gate: over all
// nine workloads, train and test, every layout and heap-allocator
// variant, with paging and miss attribution on, a single-layout EvalFrom
// and a multi-layout Pass at 1 and 4 workers must encode identically to
// the reference resolver — and so must an L2+TLB hierarchy pass.
func TestKernelMatchesReference(t *testing.T) {
	layouts := []LayoutKind{LayoutNatural, LayoutCCDP, LayoutRandom}
	hcfg := hierarchy.Config{
		L1:         cache.DefaultConfig,
		L2:         cache.Config{Size: 96 * 1024, BlockSize: 32, Assoc: 3},
		TLBEntries: 32,
	}
	for _, w := range workload.All() {
		t.Run(w.Name(), func(t *testing.T) {
			base := DefaultOptions()
			base.TrackPages = true
			base.Attribution = true
			heapPlace := w.HeapPlacement()
			inputs := []workload.Input{quickInput(w, 0.03), quickTestInput(w, 0.03)}
			raws := make([][]byte, len(inputs))
			for i, in := range inputs {
				var buf bytes.Buffer
				if err := RecordTrace(w, in, &buf, base); err != nil {
					t.Fatal(err)
				}
				raws[i] = buf.Bytes()
			}
			pr, err := ProfileFrom(openRaw(t, raws[0], base), base)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := Place(w, pr, base)
			if err != nil {
				t.Fatal(err)
			}

			for i, in := range inputs {
				raw := raws[i]
				refs, err := CountRefsFrom(openRaw(t, raw, Options{}))
				if err != nil {
					t.Fatal(err)
				}
				for _, fit := range []string{"first", "temporal"} {
					opts := base
					opts.HeapFit = fit
					want := make([][]byte, len(layouts))
					for l, kind := range layouts {
						res, err := refEval(openRaw(t, raw, opts), heapPlace, kind, pr, pm, opts, refs)
						if err != nil {
							t.Fatal(err)
						}
						want[l] = EncodeEvalResult(res)
						got, err := EvalFrom(openRaw(t, raw, opts), w.Name(), heapPlace, in, kind, pr, pm, opts, refs)
						if err != nil {
							t.Fatal(err)
						}
						if enc := EncodeEvalResult(got); !bytes.Equal(enc, want[l]) {
							t.Fatalf("%s/%s/%s EvalFrom diverged:\n--- kernel ---\n%s--- reference ---\n%s",
								in.Label, fit, kind, enc, want[l])
						}
					}
					for _, workers := range []int{1, 4} {
						p := Pass{
							Workload: w.Name(), HeapPlace: heapPlace, Input: in, Layouts: layouts,
							Profile: pr, Placement: pm, Options: opts, RefsHint: refs,
						}
						res, err := p.Run(context.Background(), openRaw(t, raw, opts), workers)
						if err != nil {
							t.Fatal(err)
						}
						for l, kind := range layouts {
							if enc := EncodeEvalResult(res.Evals[l]); !bytes.Equal(enc, want[l]) {
								t.Fatalf("%s/%s/%s pass at %d workers diverged:\n--- kernel ---\n%s--- reference ---\n%s",
									in.Label, fit, kind, workers, enc, want[l])
							}
						}
					}
				}

				hierLayouts := []LayoutKind{LayoutNatural, LayoutCCDP}
				want := make([][]byte, len(hierLayouts))
				for l, kind := range hierLayouts {
					res, err := refHierarchy(openRaw(t, raw, base), heapPlace, kind, pr, pm, hcfg, base)
					if err != nil {
						t.Fatal(err)
					}
					want[l] = EncodeHierarchyResult(res)
				}
				for _, workers := range []int{1, 4} {
					p := Pass{
						HeapPlace: heapPlace, Layouts: hierLayouts, Hierarchy: &hcfg,
						Profile: pr, Placement: pm, Options: base,
					}
					res, err := p.Run(context.Background(), openRaw(t, raw, base), workers)
					if err != nil {
						t.Fatal(err)
					}
					for l, kind := range hierLayouts {
						if enc := EncodeHierarchyResult(res.Hiers[l]); !bytes.Equal(enc, want[l]) {
							t.Fatalf("%s/%s hierarchy pass at %d workers diverged:\n--- kernel ---\n%s--- reference ---\n%s",
								in.Label, kind, workers, enc, want[l])
						}
					}
				}
			}
		})
	}
}

// TestPassUnevenWorkerSplit covers group counts that do not divide into
// the worker count (5 groups at 4 workers, 6 at 5): every group still
// runs exactly once, and each result matches the one-worker pass.
func TestPassUnevenWorkerSplit(t *testing.T) {
	buf, w, in := recordSmallTrace(t, "compress", 0.05)
	raw := buf.Bytes()
	opts := DefaultOptions()
	pr, err := ProfileFrom(openRaw(t, raw, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Place(w, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	cycle := []LayoutKind{LayoutNatural, LayoutCCDP, LayoutRandom}
	for _, tc := range []struct{ groups, workers int }{{5, 4}, {6, 5}} {
		layouts := make([]LayoutKind, tc.groups)
		for i := range layouts {
			layouts[i] = cycle[i%len(cycle)]
		}
		p := Pass{
			Workload: w.Name(), HeapPlace: w.HeapPlacement(), Input: in, Layouts: layouts,
			Profile: pr, Placement: pm, Options: opts,
		}
		want, err := p.Run(context.Background(), openRaw(t, raw, opts), 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Run(context.Background(), openRaw(t, raw, opts), tc.workers)
		if err != nil {
			t.Fatalf("%d groups at %d workers: %v", tc.groups, tc.workers, err)
		}
		for l := range layouts {
			if a, b := EncodeEvalResult(got.Evals[l]), EncodeEvalResult(want.Evals[l]); !bytes.Equal(a, b) {
				t.Fatalf("%d groups at %d workers: layout %d (%s) diverged:\n%s--- one worker ---\n%s",
					tc.groups, tc.workers, l, layouts[l], a, b)
			}
		}
	}
}
