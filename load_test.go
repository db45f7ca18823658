package xcbc

// Load proof for the multi-tenant control plane. BenchmarkAPIUnderLoad
// runs internal/loadgen's seeded request mix on bench/work's closed-loop
// runner against an in-process api.Server at 1, 16, and 64 tenants;
// scripts/bench_gate.sh gates its allocs/op and B/op, which count the
// server's allocations and not a recorder's. The smoke test asserts that a
// rate-limited server under concurrent load answers every request with 2xx
// or 429 — never a 5xx, never a dropped request.

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xcbc/bench/work"
	"xcbc/internal/core"
	"xcbc/internal/loadgen"
	"xcbc/internal/repo"
	"xcbc/pkg/xcbc/api"
)

// newLoadServer builds an in-process control plane with n named tenants
// (or open mode when n == 0), each holding a few fleets and two ready
// deployments so list endpoints page over real data. Returns the server
// and the per-tenant bearer keys.
func newLoadServer(tb testing.TB, n int, rate float64, burst int) (*api.Server, []string) {
	tb.Helper()
	xnit, err := core.NewXNITRepository()
	if err != nil {
		tb.Fatal(err)
	}
	cfg := api.Config{Repos: []*repo.Repository{xnit}}
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("load-key-%03d", i)
		keys = append(keys, key)
		cfg.Tenants = append(cfg.Tenants, api.TenantConfig{
			Name: fmt.Sprintf("t%03d", i), Key: key,
			RateLimit: rate, Burst: burst,
		})
	}
	srv := api.New(cfg)
	tb.Cleanup(func() { srv.Close() })

	// Seed each tenant as bench/'s read_mix does: unprovisioned fleets —
	// real registry entries without background builds — and two ready
	// deployments, so a /deployments page carries rows and the allocation
	// gate sees what a row costs.
	for i, key := range keys {
		call := func(method, path, body string, want int) []byte {
			req := httptest.NewRequest(method, path, strings.NewReader(body))
			req.Header.Set("Authorization", "Bearer "+key)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != want {
				tb.Fatalf("seeding: %s %s = %d, want %d: %s", method, path, rec.Code, want, rec.Body.Bytes())
			}
			return rec.Body.Bytes()
		}
		for j := 0; j < 3; j++ {
			call("POST", "/api/v1/fleets", fmt.Sprintf(`{"name":"seed-%d-%d","members":4,"cluster":"littlefe","provision":false}`, i, j), http.StatusAccepted)
		}
		for j := 1; j <= 2; j++ {
			call("POST", "/api/v1/deployments", `{"cluster":"littlefe","scheduler":"torque"}`, http.StatusAccepted)
			awaitBody(tb, call, fmt.Sprintf("/api/v1/deployments/d%d?limit=1", j), `"state":"ready"`)
		}
	}
	return srv, keys
}

// handlerDoer is the in-process work.Doer: it serves each request straight
// from h into a discardResponse, which keeps only the status and headers.
// Each mix entry's request is built once; a call hands h a shallow copy
// (with a fresh body reader for a POST) and a pooled writer, so the client
// costs a request about two allocations. A handler that writes without
// WriteHeader (a list, the discovery document) answered 200; a 429 without
// Retry-After fails like a transport error.
type handlerDoer struct {
	h    http.Handler
	reqs map[work.Request]*http.Request
	resp sync.Pool // *discardResponse
}

func newHandlerDoer(h http.Handler, mix []work.Request) *handlerDoer {
	d := &handlerDoer{h: h, reqs: map[work.Request]*http.Request{}}
	for _, r := range mix {
		req := httptest.NewRequest(r.Method, r.Path, strings.NewReader(r.Body))
		loadgen.Decorate(req.Header, &r)
		d.reqs[r] = req
	}
	d.resp.New = func() any { return &discardResponse{header: http.Header{}} }
	return d
}

func (d *handlerDoer) Do(r *work.Request) (int, []byte, error) {
	base := d.reqs[*r]
	if base == nil {
		return 0, nil, fmt.Errorf("%s %s is not in the mix", r.Method, r.Path)
	}
	req := *base
	if r.Body != "" {
		req.Body = io.NopCloser(strings.NewReader(r.Body))
	}
	w := d.resp.Get().(*discardResponse)
	defer d.resp.Put(w)
	clear(w.header)
	w.code = 0
	d.h.ServeHTTP(w, &req)
	if w.code == http.StatusTooManyRequests && w.header.Get("Retry-After") == "" {
		return w.code, nil, errors.New("429 without Retry-After")
	}
	return cmp.Or(w.code, http.StatusOK), nil, nil
}

// BenchmarkAPIUnderLoad measures what a request of the mix costs the
// control plane under concurrent load as tenancy scales. Rate limits are
// off so the numbers measure capacity, not policy.
func BenchmarkAPIUnderLoad(b *testing.B) {
	for _, tenants := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			srv, keys := newLoadServer(b, tenants, 0, 0)
			mix := loadgen.Mix(keys...)
			doer := newHandlerDoer(srv.Handler(), mix)
			b.ResetTimer()
			res, err := loadgen.Run(loadgen.Spec{
				Doer:     doer,
				Mix:      mix,
				Workers:  8,
				Requests: b.N,
				Seed:     42,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if res.Unexpected() != 0 {
				b.Fatalf("unexpected responses under load: %+v errors=%d", res.Status, res.Errors)
			}
		})
	}
}

// TestAPILoadSmoke is the CI smoke gate: a rate-limited multi-tenant
// server under a concurrent mixed load answers every request with 2xx
// (served) or 429 (back-pressured with Retry-After) — zero transport
// errors, zero other statuses.
func TestAPILoadSmoke(t *testing.T) {
	srv, keys := newLoadServer(t, 4, 200, 50)
	mix := loadgen.Mix(keys...)
	res, err := loadgen.Run(loadgen.Spec{
		Doer:     newHandlerDoer(srv.Handler(), mix),
		Mix:      mix,
		Workers:  8,
		Requests: 4000,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.Unexpected() != 0 {
		t.Fatalf("smoke: unexpected responses: %+v errors=%d", res.Status, res.Errors)
	}
	ok := 0
	for code, n := range res.Status {
		if code >= 200 && code <= 299 {
			ok += n
		}
	}
	if ok == 0 {
		t.Fatal("smoke: no successful responses at all")
	}
	if res.Status[http.StatusTooManyRequests] == 0 {
		t.Log("smoke: rate limiter never engaged (fast machine?); throughput below 4×200 req/s")
	}
}

// TestHandlerDoerCost pins the in-process client's share of a
// BenchmarkAPIUnderLoad request, so that benchmark's allocs/op and B/op
// weigh the server: the same run over a handler that only answers 200
// allocates at most 3 times and 1 KB a request.
func TestHandlerDoerCost(t *testing.T) {
	mix := loadgen.Mix("key-a", "key-b")
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	const n = 4000
	spec := loadgen.Spec{Doer: newHandlerDoer(ok, mix), Mix: mix, Workers: 8, Requests: n, Seed: 42}
	var before, after runtime.MemStats
	for i := range 2 { // the first run warms the pool
		runtime.ReadMemStats(&before)
		res, err := loadgen.Run(spec)
		runtime.ReadMemStats(&after)
		if err != nil || res.Unexpected() != 0 {
			t.Fatalf("run %d: %v %+v", i, err, res)
		}
	}
	allocs := float64(after.Mallocs-before.Mallocs) / n
	kb := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024
	t.Logf("client: %.2f allocs and %.2f KB a request", allocs, kb)
	if allocs > 3 || kb > 1 {
		t.Errorf("the in-process client costs %.2f allocs and %.2f KB a request, want at most 3 and 1 KB", allocs, kb)
	}
}
