package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// gridBombRequest is about 1 KB of JSON whose sweep grid expands to
// 2 levels x 9 sizes x 3 blocks x 9 assocs x 9 chunks x 9 queues x
// 3 cutoffs x 3 layouts x 3 heaps = 1,062,882 cells.
const gridBombRequest = `{"kind":"sweep","workload":"compress","grid":{
 "sizes":[1024,2048,4096,8192,16384,32768,65536,131072,262144],
 "blocks":[16,32,64],
 "assocs":[1,2,4,8,16,32,64,128,256],
 "chunks":[0,64,128,256,512,1024,2048,4096,8192],
 "queues":[0,8192,16384,32768,65536,131072,262144,524288,1048576],
 "cutoffs":[0,0.001,0.01],
 "layouts":["natural","ccdp","random"],
 "heaps":["","first","temporal"],
 "l2":[{"size":98304,"block":32,"assoc":3,"tlb":32}]}}`

// allocated reports the bytes the heap handed out while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSweepGridBombRejected is the regression test for capping a sweep
// grid only after expanding it: the over-cap request is refused with a
// 400 while allocating a few MB at most, and an over-long body with a 413.
func TestSweepGridBombRejected(t *testing.T) {
	s := New(Config{Scale: testScale})
	defer s.Close(0)
	h := s.Handler()

	rec := httptest.NewRecorder()
	grew := allocated(func() {
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(gridBombRequest)))
	})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "1062882 cells") {
		t.Fatalf("grid bomb: status %d, body %s", rec.Code, rec.Body)
	}
	if grew > 4<<20 {
		t.Fatalf("grid bomb allocated %d bytes before its 400, want at most 4 MB", grew)
	}

	rec = httptest.NewRecorder()
	body := strings.Repeat(" ", maxRequestBytes) + `{"kind":"eval","workload":"espresso"}`
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-long body: status %d, want 413 (body %s)", rec.Code, rec.Body)
	}
}

// FuzzJobRequest drives POST /v1/jobs decode+validate with arbitrary
// bodies: every input is accepted or refused with a 4xx — never a panic —
// and no input, accepted or not, gets to expand an over-cap sweep grid.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		gridBombRequest,
		`{"kind":"eval","workload":"espresso"}`,
		`{"kind":"explain","workload":"gcc","layouts":["natural","random"],"inputs":["test"]}`,
		`{"kind":"place","workload":"compress","cache":{"size":16384,"assoc":2},"profile":{"chunk":128}}`,
		`{"kind":"sweep","workload":"compress","grid":{"sizes":[4096,8192],"layouts":["ccdp"]}}`,
		`{"kind":"suite","workloads":["mgrid"]}`,
		`{"kind":"eval","workload":"espresso","scale":-1}`,
		`{"kind":"sweep","workload":"compress","grid":{"blocks":[33]}}`,
		`{"kind":"eval","bogus":1}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{Scale: testScale})
	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			req JobRequest
			err error
		)
		grew := allocated(func() {
			r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
			req, err = s.parseRequest(httptest.NewRecorder(), r)
		})
		if grew > 16<<20 {
			t.Fatalf("decode+validate allocated %d bytes for a %d-byte body", grew, len(body))
		}
		if err != nil {
			var re *requestError
			if !errors.As(err, &re) || re.status < 400 || re.status > 499 {
				t.Fatalf("refusal %v is not a 4xx request error", err)
			}
			return
		}
		if req.Kind == KindSweep && req.Grid != nil && req.Grid.NumCells() > s.cfg.MaxSweepCells {
			t.Fatalf("accepted a %d-cell grid above the cap %d", req.Grid.NumCells(), s.cfg.MaxSweepCells)
		}
	})
}
