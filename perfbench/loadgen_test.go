package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// stallServer answers POST /v1/jobs after stall with a done status whose
// result names the requested workload, and refuses the workload "refuse"
// with 503. It records the peak number of requests in flight and the
// distinct client connections it saw.
type stallServer struct {
	stall time.Duration

	mu       sync.Mutex
	inFlight int
	peak     int
	conns    map[string]bool
}

func (s *stallServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.inFlight++
	s.peak = max(s.peak, s.inFlight)
	s.conns[r.RemoteAddr] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inFlight--
		s.mu.Unlock()
	}()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		var req server.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Workload == "refuse" {
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
			return
		}
		time.Sleep(s.stall)
		_ = json.NewEncoder(w).Encode(server.JobStatus{ID: "j", State: server.StateDone, ResultURL: "/result/" + req.Workload})
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/result/"):
		_, _ = w.Write([]byte(strings.TrimPrefix(r.URL.Path, "/result/")))
	default:
		http.NotFound(w, r)
	}
}

func stubJob(due time.Duration, name string) Job {
	body, _ := json.Marshal(server.JobRequest{Kind: server.KindEval, Workload: name})
	return Job{Due: due, Body: body, Key: name}
}

// TestGeneratorDueTimeAccounting drives a server that stalls every job
// for 200ms with six jobs due 10ms apart over two connections. Jobs
// three to six are due while both connections are busy: each is sent
// late by whole stalls and its latency, counted from its due time,
// includes that wait.
func TestGeneratorDueTimeAccounting(t *testing.T) {
	const stall = 200 * time.Millisecond
	stub := &stallServer{stall: stall, conns: map[string]bool{}}
	ts := httptest.NewServer(stub)
	defer ts.Close()

	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, stubJob(time.Duration(i)*10*time.Millisecond, string(rune('a'+i))))
	}
	gen := NewGenerator(ts.URL, 2, NewTracer())
	defer gen.Close()
	outs := gen.Run(context.Background(), jobs)

	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if string(o.Result) != jobs[i].Key {
			t.Errorf("job %d: result %q, want %q", i, o.Result, jobs[i].Key)
		}
		if got := o.Due.Add(-jobs[i].Due); !got.Equal(outs[0].Due) {
			t.Errorf("job %d: due %v is not the schedule start plus %v", i, o.Due, jobs[i].Due)
		}
		// A job waits for the pair ahead of it to finish: job i goes out
		// after i/2 full stalls, however early it was due.
		wantSent := time.Duration(i/2) * stall
		if sent := o.Sent.Sub(outs[0].Due); sent < wantSent {
			t.Errorf("job %d: sent %v after the start, want >= %v", i, sent, wantSent)
		}
		if o.Latency() < o.Late()+stall {
			t.Errorf("job %d: latency %v does not include lateness %v plus the %v stall", i, o.Latency(), o.Late(), stall)
		}
	}
	if late := outs[5].Late(); late < 2*stall-100*time.Millisecond {
		t.Errorf("last job late by %v, want about %v", late, 2*stall-100*time.Millisecond)
	}
	stub.mu.Lock()
	peak, conns := stub.peak, len(stub.conns)
	stub.mu.Unlock()
	if peak > 2 || conns > 2 {
		t.Errorf("generator used %d concurrent requests over %d connections, want at most 2", peak, conns)
	}

	st := summarize(outs, 500*time.Millisecond)
	if st.Offered != 6 || st.Failed != 0 {
		t.Fatalf("summary %+v", st)
	}
	// Jobs 4 and 5 are due at 40-50ms and finish after 600ms.
	if st.WithinLimit != 4 {
		t.Errorf("%d jobs within 500ms, want 4 (the last pair waits two stalls)", st.WithinLimit)
	}
	if st.LateP95 < 2*stall-100*time.Millisecond {
		t.Errorf("lateness p95 %v, want >= %v", st.LateP95, 2*stall-100*time.Millisecond)
	}
}

// TestRefusedJobMissesTheLimit checks that a refused job is a failure
// that counts as infinitely late, not a dropped sample.
func TestRefusedJobMissesTheLimit(t *testing.T) {
	stub := &stallServer{conns: map[string]bool{}}
	ts := httptest.NewServer(stub)
	defer ts.Close()
	gen := NewGenerator(ts.URL, 2, nil)
	defer gen.Close()
	outs := gen.Run(context.Background(), []Job{stubJob(0, "ok"), stubJob(0, "refuse")})
	if outs[0].Err != nil || outs[1].Err == nil || outs[1].Code != http.StatusServiceUnavailable {
		t.Fatalf("outcomes: %+v / %+v", outs[0], outs[1])
	}
	st := summarize(outs, time.Second)
	if st.Failed != 1 || st.WithinLimit != 1 || st.Goodput() != 0.5 {
		t.Errorf("summary %+v goodput %v", st, st.Goodput())
	}
	if st.P95 < time.Hour {
		t.Errorf("p95 %v: a refused job must count as missing the limit", st.P95)
	}
}
