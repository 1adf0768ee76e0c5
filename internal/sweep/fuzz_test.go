package sweep

import "testing"

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
