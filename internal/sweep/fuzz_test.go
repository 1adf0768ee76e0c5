package sweep

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// FuzzParseAxes drives the -sweep-* flag parser with arbitrary axis
// strings: it must return a grid or an error, never panic, and a grid's
// NumCells must be the length of its expansion whenever that expansion
// is small enough to build.
func FuzzParseAxes(f *testing.F) {
	// The 1,062,882-cell grid of the server's grid-bomb regression test.
	f.Add("1024,2048,4096,8192,16384,32768,65536,131072,262144", "16,32,64",
		"1,2,4,8,16,32,64,128,256", "0,64,128,256,512,1024,2048,4096,8192",
		"0,8192,16384,32768,65536,131072,262144,524288,1048576", "0,0.001,0.01",
		"natural,ccdp,random", "first,temporal,first", "98304/32/3/32")
	f.Add("4096,8192", "32", "1,2", "0,512", "", "", "natural,ccdp", "", "98304/32/3/32")
	f.Add("8192", "", "", "", "", "0,0.001", "ccdp", "first,temporal", "")
	f.Add("", "", "", "", "", "", "", "", "98304/32")
	f.Add("banana", "", "", "", "", "NaN", "zigzag", "", "1/2/3/4;5/6/7/8")
	f.Fuzz(func(t *testing.T, sizes, blocks, assocs, chunks, queues, cutoffs, layouts, heaps, l2 string) {
		g, err := ParseAxes(sizes, blocks, assocs, chunks, queues, cutoffs, layouts, heaps, l2)
		if err != nil {
			return
		}
		n := g.NumCells()
		if n < 1 {
			t.Fatalf("NumCells = %d, want >= 1", n)
		}
		if n > 4096 {
			return // counting is the point: never expand a grid this large
		}
		if cells, err := g.Cells(); err == nil && len(cells) != n {
			t.Fatalf("NumCells = %d, Cells expanded %d", n, len(cells))
		}
	})
}

// FuzzLoadGridFile drives the JSON grid-file loader with arbitrary file
// contents: it must return a grid or an error, never panic, and a
// loaded grid's cells, when small enough to expand, must validate and
// render like a flag-parsed grid's.
func FuzzLoadGridFile(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"sizes":[4096,8192],"assocs":[1,2],"chunks":[256,512],"queues":[8192,16384],"layouts":["natural","ccdp"]}`))
	f.Add([]byte(`{"cutoffs":[0,0.001],"heaps":["first","temporal"],"l2":[{"size":98304,"block":32,"assoc":3,"tlb":32}]}`))
	f.Add([]byte(`{"sizes":[0],"blocks":[-32],"assocs":[3],"layouts":["zigzag"]}`))
	f.Add([]byte(`{"l2":[{"size":1024,"block":0,"assoc":0,"tlb":-1}]}`))
	f.Add([]byte(`{"sizes":[8192],"unknown":true}`))
	f.Add([]byte(`{"sizes":[1e400]}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "grid.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := LoadGridFile(path)
		if err != nil {
			return
		}
		n := g.NumCells()
		if n < 1 {
			t.Fatalf("NumCells = %d, want >= 1", n)
		}
		if n > 4096 {
			return // never expand a grid this large
		}
		cells, err := g.Cells()
		if err != nil {
			return
		}
		if len(cells) != n {
			t.Fatalf("NumCells = %d, Cells expanded %d", n, len(cells))
		}
		base := sim.DefaultOptions()
		for _, c := range cells {
			_ = c.Label()
			_ = c.placementKey(base)
		}
	})
}
