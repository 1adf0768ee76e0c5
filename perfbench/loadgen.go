package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Job is one scheduled service request.
type Job struct {
	// Due is when the job should be sent, as an offset from the start of
	// the schedule.
	Due time.Duration
	// Body is the POST /v1/jobs request body.
	Body []byte
	// Key names the expected result.
	Key string
}

// Outcome is what happened to one job. Latency runs from the job's due
// time, not from when a connection became free to send it, so a stall
// charges its wait to every job queued behind it.
type Outcome struct {
	Due, Sent, Done time.Time
	// Code is the submit's HTTP status (0 when the request failed).
	Code   int
	Status server.JobStatus
	Result []byte
	Err    error
}

// Latency is the job's due-to-result time.
func (o *Outcome) Latency() time.Duration { return o.Done.Sub(o.Due) }

// Late is how long after its due time the job was sent.
func (o *Outcome) Late() time.Duration { return o.Sent.Sub(o.Due) }

// Generator drives a fixed schedule open-loop over at most Conns
// connections: Conns senders take jobs in due order, each waits for its
// job's due time (or sends at once if it is already late) and submits
// with POST /v1/jobs?wait=true, then fetches the result.
type Generator struct {
	Base   string
	Conns  int
	Tracer *Tracer
	// TraceEvery traces every n-th job (jobs 0, n, 2n, ...) and leaves
	// the rest untraced, so one schedule yields both; 0 or 1 traces all.
	TraceEvery int

	client *http.Client
}

// NewGenerator returns a generator for the service at base.
func NewGenerator(base string, conns int, tr *Tracer) *Generator {
	return &Generator{
		Base: base, Conns: conns, Tracer: tr,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
			},
		},
	}
}

// Close releases the generator's idle connections.
func (g *Generator) Close() { g.client.CloseIdleConnections() }

// Run sends jobs (sorted by Due) and returns one outcome per job, in job
// order, once every job has finished or ctx ends.
func (g *Generator) Run(ctx context.Context, jobs []Job) []Outcome {
	out := make([]Outcome, len(jobs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < g.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				due := start.Add(jobs[i].Due)
				if wait := time.Until(due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				tr := g.Tracer
				if g.TraceEvery > 1 && i%g.TraceEvery != 0 {
					tr = nil
				}
				out[i] = g.send(ctx, tr, i+1, due, jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// send submits one job and fetches its result.
func (g *Generator) send(ctx context.Context, tr *Tracer, req int, due time.Time, job Job) (o Outcome) {
	o = Outcome{Due: due, Sent: time.Now()}
	root := tr.BeginAt(due, "job", job.Key, 0, req)
	defer func() {
		o.Done = time.Now()
		tr.End(root)
	}()
	if ctx.Err() != nil {
		o.Err = ctx.Err()
		return o
	}
	tr.End(tr.BeginAt(due, "load.wait", job.Key, root, req))

	span := tr.Begin("http.submit", job.Key, root, req)
	body, code, err := g.do(ctx, http.MethodPost, g.Base+"/v1/jobs?wait=true", job.Body)
	tr.End(span)
	o.Code = code
	switch {
	case err != nil:
		o.Err = fmt.Errorf("submit: %w", err)
		return o
	case code != http.StatusOK:
		o.Err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(body))
		return o
	}
	if err := json.Unmarshal(body, &o.Status); err != nil {
		o.Err = fmt.Errorf("submit: decoding status: %w", err)
		return o
	}
	if o.Status.State != server.StateDone {
		o.Err = fmt.Errorf("job %s ended %s: %s", o.Status.ID, o.Status.State, o.Status.Error)
		return o
	}

	span = tr.Begin("http.result", job.Key, root, req)
	o.Result, code, err = g.do(ctx, http.MethodGet, g.Base+o.Status.ResultURL, nil)
	tr.End(span)
	switch {
	case err != nil:
		o.Err = fmt.Errorf("result: %w", err)
	case code != http.StatusOK:
		o.Err = fmt.Errorf("result: HTTP %d", code)
	}
	return o
}

// do performs one request and reads the whole response body.
func (g *Generator) do(ctx context.Context, method, url string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// loadStats summarizes a schedule's outcomes against a latency limit.
type loadStats struct {
	Offered int
	Failed  int
	// WithinLimit counts jobs that succeeded within the limit.
	WithinLimit int
	// P50/P95 are nearest-rank latency percentiles over every offered
	// job; a failed or refused job counts as infinitely late.
	P50, P95 time.Duration
	// LateP95 is the generator's own lateness: how long after their due
	// time jobs were sent.
	LateP95 time.Duration
}

// summarize computes loadStats over outs.
func summarize(outs []Outcome, limit time.Duration) loadStats {
	st := loadStats{Offered: len(outs)}
	lat := make([]time.Duration, len(outs))
	late := make([]time.Duration, len(outs))
	for i := range outs {
		o := &outs[i]
		late[i] = o.Late()
		if o.Err != nil {
			st.Failed++
			lat[i] = time.Duration(math.MaxInt64)
			continue
		}
		lat[i] = o.Latency()
		if lat[i] <= limit {
			st.WithinLimit++
		}
	}
	st.P50, st.P95 = percentile(lat, 0.50), percentile(lat, 0.95)
	st.LateP95 = percentile(late, 0.95)
	return st
}

// Goodput is the share of offered jobs that succeeded within the limit.
func (s loadStats) Goodput() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.WithinLimit) / float64(s.Offered)
}
