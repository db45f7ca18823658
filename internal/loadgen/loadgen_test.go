package loadgen

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xcbc/bench/work"
)

// handlerDoer serves each request from h in process.
type handlerDoer struct{ h http.Handler }

func (d handlerDoer) Do(r *work.Request) (int, []byte, error) {
	req := httptest.NewRequest(r.Method, r.Path, strings.NewReader(r.Body))
	Decorate(req.Header, r)
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, req)
	return rec.Code, nil, nil
}

// paths records the path of every request, in order.
type paths []string

func (p *paths) Do(r *work.Request) (int, []byte, error) {
	*p = append(*p, r.Method+" "+r.Path+" "+r.Key)
	return r.Want, nil, nil
}

// sequence returns the first n requests of a run of mix under seed.
func sequence(seed uint64, n int, mix []work.Request) []string {
	var p paths
	w, c := &workload{mix: mix, seed: seed}, work.NewConn(&p, nil, nil)
	for i := range n {
		w.Op(c, i)
	}
	return p
}

func TestRunAgainstHandler(t *testing.T) {
	var hits, posts atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if r.Method == http.MethodPost {
			posts.Add(1)
			if b, _ := io.ReadAll(r.Body); string(b) != `{"n":1}` || r.Header.Get("Content-Type") != "application/json" {
				t.Errorf("body %q, Content-Type %q not delivered", b, r.Header.Get("Content-Type"))
			}
			w.WriteHeader(http.StatusCreated)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	get := work.Request{Method: "GET", Path: "/x"}
	res, err := Run(Spec{
		Doer:     handlerDoer{h},
		Mix:      []work.Request{get, get, get, {Method: "POST", Path: "/y", Body: `{"n":1}`}},
		Workers:  4,
		Requests: 400,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got != 400 {
		t.Fatalf("handler saw %d requests, want 400", got)
	}
	if res.Requests != 400 || res.Status[200]+res.Status[201] != 400 {
		t.Fatalf("result mismatch: %+v", res)
	}
	if res.Status[201] != int(posts.Load()) {
		t.Fatalf("status 201 count %d != POSTs served %d", res.Status[201], posts.Load())
	}
	// 1-in-4 weight: POSTs should be near 100 of 400, and never the
	// majority.
	if p := res.Status[201]; p < 50 || p > 150 {
		t.Fatalf("weighted mix skewed: %d POSTs of 400", p)
	}
	if res.Elapsed <= 0 || res.Max <= 0 || res.P50 > res.P90 || res.P90 > res.P99 || res.P99 > res.Max {
		t.Fatalf("latency not measured: %+v", res)
	}
	if res.Unexpected() != 0 {
		t.Fatalf("unexpected outcomes: %+v", res.Status)
	}
}

// TestDeterministicSequence pins the determinism contract: request i is a
// pure function of (seed, i, mix), so a run issues the same requests every
// time whatever the worker count, and a longer run extends a shorter one.
func TestDeterministicSequence(t *testing.T) {
	mix := Mix("k1", "k2")
	a := sequence(7, 500, mix)
	if b := sequence(7, 500, mix); !slices.Equal(a, b) {
		t.Fatal("same seed, different sequence")
	}
	if c := sequence(7, 800, mix); !slices.Equal(a, c[:500]) {
		t.Fatal("a longer run does not extend a shorter one")
	}
	if c := sequence(8, 500, mix); slices.Equal(a, c) {
		t.Fatal("seeds 7 and 8 issued the same 500 requests")
	}
	issued := func(workers int) []string {
		var mu sync.Mutex
		var got []string
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, r.Method+" "+r.URL.RequestURI()+" "+strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer "))
		})
		if _, err := Run(Spec{Doer: handlerDoer{h}, Mix: mix, Workers: workers, Requests: 500, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		slices.Sort(got)
		return got
	}
	want := slices.Sorted(slices.Values(a))
	for _, workers := range []int{1, 3} {
		if got := issued(workers); !slices.Equal(got, want) {
			t.Fatalf("%d workers issued a different multiset of requests", workers)
		}
	}
}

// TestWeightsRespected draws a long sequence of the control-plane mix and
// checks that each request's share is its weight over the total, 16.
func TestWeightsRespected(t *testing.T) {
	mix := Mix("")
	if len(mix) != 16 {
		t.Fatalf("Mix() lists %d entries, want 16 (weights 5+4+2+2+1+1+1)", len(mix))
	}
	const n = 32000
	count := map[string]int{}
	for _, r := range sequence(3, n, mix) {
		count[r]++
	}
	for r, weight := range map[string]int{
		"GET /api/v1/fleets ": 5, "GET /api/v1/deployments ": 4, "GET /api/v1/fleets?limit=2 ": 2,
		"GET /api/v1/scenarios ": 2, "GET /api/v1/store ": 1, "GET /api/v1 ": 1, "POST /api/v1/depsolve ": 1,
	} {
		want := n * weight / 16
		if got := count[r]; got < want*9/10 || got > want*11/10 {
			t.Errorf("%q drawn %d times of %d, want %d ± 10%%", r, got, n, want)
		}
	}
	keyed := Mix("k1", "k2")
	if len(keyed) != 32 || keyed[0].Key != "k1" || keyed[31].Key != "k2" {
		t.Fatalf("Mix(k1, k2) = %d entries, first key %q, last %q", len(keyed), keyed[0].Key, keyed[31].Key)
	}
}

func TestRunAgainstURL(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != "Bearer k" {
			w.WriteHeader(http.StatusUnauthorized)
			return
		}
		w.Write([]byte(strings.Repeat("x", 64<<10))) // drained, not returned
	}))
	defer srv.Close()
	res, err := Run(Spec{
		Doer:     URL{Base: srv.URL, Client: srv.Client()},
		Mix:      Mix("k"),
		Workers:  2,
		Requests: 50,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[200] != 50 || res.Errors != 0 {
		t.Fatalf("want 50×200 over the wire, got %+v errors=%d", res.Status, res.Errors)
	}
	res, err = Run(Spec{Doer: URL{Base: srv.URL, Client: srv.Client()}, Mix: Mix(""), Requests: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[401] != 10 || res.Unexpected() != 10 {
		t.Fatalf("without a key: want 10×401, all unexpected, got %+v", res.Status)
	}
	if _, _, err := (URL{Base: "http://[::1", Client: srv.Client()}).Do(&work.Request{Method: "GET", Path: "/"}); err == nil {
		t.Fatal("a malformed base URL was sent")
	}
}

func TestRunTransportErrors(t *testing.T) {
	// A listener that accepts and closes every connection at once.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	res, err := Run(Spec{
		Doer:     URL{Base: "http://" + ln.Addr().String(), Client: &http.Client{Timeout: 2 * time.Second}},
		Mix:      []work.Request{{Method: "GET", Path: "/"}},
		Workers:  2,
		Requests: 4,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 4 || res.Unexpected() != 4 || !strings.Contains(res.String(), "status errors×4\n") {
		t.Fatalf("want 4 transport errors, got %+v\n%s", res, res)
	}
}

func TestSpecValidation(t *testing.T) {
	d := handlerDoer{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})}
	var calls paths
	cases := []Spec{
		{},             // no Doer, no mix
		{Doer: d},      // no mix
		{Mix: Mix("")}, // no Doer
		{Doer: &calls, Mix: Mix(""), Requests: 10_000_001}, // over the cap
	}
	for i, spec := range cases {
		if _, err := Run(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	if len(calls) != 0 {
		t.Errorf("a refused run sent %d requests", len(calls))
	}
}

func TestDefaultsApplied(t *testing.T) {
	var hits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hits.Add(1) })
	res, err := Run(Spec{Doer: handlerDoer{h}, Mix: []work.Request{{Method: "GET", Path: "/"}}})
	if err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 1000 || res.Requests != 1000 {
		t.Fatalf("default request count not applied: %d", hits.Load())
	}
}

func TestUnexpected(t *testing.T) {
	r := &Result{Status: map[int]int{200: 10, 201: 2, 429: 5, 404: 1, 500: 3}, Errors: 2}
	if got := r.Unexpected(); got != 6 {
		t.Fatalf("Unexpected() = %d, want 6 (404 + 3×500 + 2 errors)", got)
	}
}

func TestResultString(t *testing.T) {
	res, err := Run(Spec{
		Doer:     handlerDoer{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})},
		Mix:      []work.Request{{Method: "GET", Path: "/"}},
		Workers:  2,
		Requests: 20,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"20 requests in ", "req/s\n", "latency p50=", " p99=", fmt.Sprintf(" max=%v\n", res.Max), "\nstatus 200×20\n"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
