// Package loadgen is the control plane's load mix, run on bench/work's
// closed-loop runner by `clusterctl load` and the root package's load
// tests: one work.Conn per worker, one work.Sample per request, quantiles
// by work.Percentile. Request i of a run is a pure function of (Spec.Seed,
// i, Spec.Mix); which worker issues it, and the latencies, are not.
package loadgen

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net/http"
	"slices"
	"strings"
	"time"

	"xcbc/bench/work"
)

// Mix returns the read-mostly control-plane mix once per key, each copy
// sending that key. It creates and deletes nothing, so it is safe against a
// server holding real state. Its fleets page is bench/'s read_mix page.
func Mix(keys ...string) []work.Request {
	routes := []struct {
		weight int
		work.Request
	}{
		{5, work.Request{Method: "GET", Path: "/api/v1/fleets"}},
		{4, work.Request{Method: "GET", Path: "/api/v1/deployments"}},
		{2, work.Request{Method: "GET", Path: "/api/v1/fleets?limit=2"}},
		{2, work.Request{Method: "GET", Path: "/api/v1/scenarios"}},
		{1, work.Request{Method: "GET", Path: "/api/v1/store"}},
		{1, work.Request{Method: "GET", Path: "/api/v1"}},
		{1, work.Request{Method: "POST", Path: "/api/v1/depsolve", Body: `{"install":["gromacs"]}`}},
	}
	var mix []work.Request
	for _, key := range keys {
		for _, r := range routes {
			r.Key = key
			for range r.weight {
				mix = append(mix, r.Request)
			}
		}
	}
	return mix
}

// Spec configures one load run.
type Spec struct {
	Doer     work.Doer      // where requests go, shared by every worker
	Mix      []work.Request // drawn uniformly: list an entry k times to weight it k
	Workers  int            // closed-loop clients; <=0 means 8
	Requests int            // total requests; <=0 means 1000, at most 10,000,000
	Seed     uint64
}

// Result is what one load run measured.
type Result struct {
	Requests           int
	Elapsed            time.Duration
	Status             map[int]int // status code -> responses
	Errors             int         // transport failures
	P50, P90, P99, Max time.Duration
}

// Run issues Spec.Requests requests through Spec.Workers closed-loop
// clients and returns once every response has been read. A transport error
// or a status outside 2xx and 429 fails its request; none is retried.
func Run(spec Spec) (*Result, error) {
	n := cmp.Or(max(spec.Requests, 0), 1000)
	switch {
	case spec.Doer == nil || len(spec.Mix) == 0:
		return nil, errors.New("loadgen: a run needs a Doer and a non-empty mix")
	case n > 10_000_000:
		return nil, fmt.Errorf("loadgen: %d requests is over the cap of 10,000,000 (a run keeps a 16 B sample per request)", n)
	}
	runner := &work.Runner{W: &workload{mix: spec.Mix, seed: spec.Seed}}
	tallies := make([]tally, min(cmp.Or(max(spec.Workers, 0), 8), n))
	for k := range tallies {
		tallies[k] = tally{doer: spec.Doer, status: map[int]int{}}
		runner.Conns = append(runner.Conns, work.NewConn(&tallies[k], nil, nil))
	}
	start := time.Now()
	samples := runner.Run(0, n)
	res := &Result{Requests: n, Elapsed: time.Since(start), Status: map[int]int{}}
	lat := work.Latencies(samples)
	res.P50, res.P90, res.P99, res.Max = work.Percentile(lat, 0.50), work.Percentile(lat, 0.90), work.Percentile(lat, 0.99), lat[n-1]
	for _, t := range tallies {
		res.Errors += t.errors
		for code, c := range t.status {
			res.Status[code] += c
		}
	}
	return res, nil
}

// workload issues request i of the mix, drawn by a PCG seeded with (seed, i).
type workload struct {
	mix  []work.Request
	seed uint64
}

func (w *workload) Populate(*work.Conn) error { return nil }

func (w *workload) Op(c *work.Conn, i int) (time.Duration, error) {
	var p rand.PCG
	p.Seed(w.seed, uint64(i))
	_, err := c.Call(w.mix[p.Uint64()%uint64(len(w.mix))], "")
	return 0, err
}

// tally counts one worker's outcomes, so counting takes no lock, and hands
// a 2xx or a 429 back to work.Conn as the status the request wanted.
type tally struct {
	doer   work.Doer
	status map[int]int
	errors int
}

func (t *tally) Do(r *work.Request) (int, []byte, error) {
	code, body, err := t.doer.Do(r)
	if err != nil {
		t.errors++
		return code, body, err
	}
	t.status[code]++
	if !unexpected(code) {
		r.Want = code
	}
	return code, body, nil
}

// unexpected reports a status a healthy admission-controlled server must
// not produce under load: 429 is back-pressure, the rest is a bug.
func unexpected(code int) bool {
	return (code < 200 || code > 299) && code != http.StatusTooManyRequests
}

// Unexpected counts transport errors plus responses outside 2xx and 429.
func (r *Result) Unexpected() int {
	n := r.Errors
	for code, c := range r.Status {
		if unexpected(code) {
			n += c
		}
	}
	return n
}

// String renders the run wrk-style.
func (r *Result) String() string {
	s := fmt.Sprintf("%d requests in %v, %.1f req/s\nlatency p50=%v p90=%v p99=%v max=%v\nstatus",
		r.Requests, r.Elapsed.Round(time.Millisecond), float64(r.Requests)/r.Elapsed.Seconds(),
		r.P50, r.P90, r.P99, r.Max)
	for _, code := range slices.Sorted(maps.Keys(r.Status)) {
		s += fmt.Sprintf(" %d×%d", code, r.Status[code])
	}
	if r.Errors > 0 {
		s += fmt.Sprintf(" errors×%d", r.Errors)
	}
	return s + "\n"
}

// URL is a work.Doer that sends each request to Base over Client and
// drains the response, so the connection is reused.
type URL struct {
	Base   string // e.g. "http://127.0.0.1:8080", no trailing slash
	Client *http.Client
}

func (u URL) Do(r *work.Request) (int, []byte, error) {
	req, err := http.NewRequest(r.Method, u.Base+r.Path, strings.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	Decorate(req.Header, r)
	resp, err := u.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

// Decorate sets the headers r implies: a JSON Content-Type when it has a
// body, and Authorization: Bearer when it carries a key.
func Decorate(h http.Header, r *work.Request) {
	if r.Body != "" {
		h.Set("Content-Type", "application/json")
	}
	if r.Key != "" {
		h.Set("Authorization", "Bearer "+r.Key)
	}
}
