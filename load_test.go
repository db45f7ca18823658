package xcbc

// Load proof for the multi-tenant control plane: BenchmarkAPIUnderLoad
// drives a deterministic seeded request mix through internal/loadgen
// against an in-process api.Server at 1, 16, and 64 tenants, reporting
// req/s and p99 latency as custom metrics (recorded in
// BENCH_baseline.json and gated by scripts/bench_gate.sh); the smoke
// test asserts that a rate-limited server under concurrent load answers
// every request with 2xx or 429 — never a 5xx, never a dropped request.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// loadMix is the read-heavy steady-state request mix, replicated per
// tenant with that tenant's key so one run exercises every shard.
func loadMix(keys []string) []loadgen.Request {
	routes := []loadgen.Request{
		{Method: "GET", Path: "/api/v1/fleets", Weight: 5},
		{Method: "GET", Path: "/api/v1/deployments", Weight: 4},
		{Method: "GET", Path: "/api/v1/fleets?limit=2", Weight: 2},
		{Method: "GET", Path: "/api/v1/scenarios", Weight: 2},
		{Method: "GET", Path: "/api/v1/store", Weight: 1},
		{Method: "GET", Path: "/api/v1", Weight: 1},
		{Method: "POST", Path: "/api/v1/depsolve", Body: `{"install":["gromacs"]}`, Weight: 1},
	}
	if len(keys) == 0 {
		return routes
	}
	mix := make([]loadgen.Request, 0, len(routes)*len(keys))
	for _, key := range keys {
		hdr := http.Header{"Authorization": {"Bearer " + key}}
		for _, r := range routes {
			r.Header = hdr
			mix = append(mix, r)
		}
	}
	return mix
}

// BenchmarkAPIUnderLoad measures control-plane throughput and tail
// latency under a concurrent mixed workload as tenancy scales. Rate
// limits are off so the numbers measure capacity, not policy.
func BenchmarkAPIUnderLoad(b *testing.B) {
	for _, tenants := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			srv, keys := newLoadServer(b, tenants, 0, 0)
			mix := loadMix(keys)
			b.ResetTimer()
			res, err := loadgen.Run(loadgen.Spec{
				Handler:  srv.Handler(),
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
			b.ReportMetric(res.ReqPerSec, "req/s")
			b.ReportMetric(float64(res.P99.Nanoseconds()), "p99-ns")
		})
	}
}

// TestAPILoadSmoke is the CI smoke gate: a rate-limited multi-tenant
// server under a concurrent mixed load answers every request with 2xx
// (served) or 429 (back-pressured with Retry-After) — zero transport
// errors, zero other statuses.
func TestAPILoadSmoke(t *testing.T) {
	srv, keys := newLoadServer(t, 4, 200, 50)
	res, err := loadgen.Run(loadgen.Spec{
		Handler:  srv.Handler(),
		Mix:      loadMix(keys),
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
