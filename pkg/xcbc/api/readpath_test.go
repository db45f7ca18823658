package api

// Read-path pins: a read route does work proportional to what it returns.
// The allocation ceilings hold a status row at "two integers, not a
// compatibility report"; the equivalence test is what stands where a
// cache's invalidation story would — the counts on a row are computed from
// live state on every request, and must equal the full report's.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"xcbc/internal/repo"
	"xcbc/internal/rpm"
	"xcbc/pkg/xcbc"
)

// newReadServer opens a durable server holding bench/'s read_mix
// population for one tenant: 3 unprovisioned fleets and 2 ready
// deployments.
func newReadServer(t *testing.T) *Server {
	t.Helper()
	xnit := newTestServer(t).set.Lookup("xsede")
	s, _, err := Open(Config{DataDir: t.TempDir(), Repos: []*repo.Repository{xnit}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for range 3 {
		if rec := do(t, s, "POST", "/api/v1/fleets", `{"name":"rm","members":4,"cluster":"littlefe","nodes":4,"provision":false}`, nil); rec.Code != http.StatusAccepted {
			t.Fatalf("create fleet: %d %s", rec.Code, rec.Body)
		}
	}
	for i := 1; i <= 2; i++ {
		if rec := do(t, s, "POST", "/api/v1/deployments", `{"cluster":"littlefe","scheduler":"torque"}`, nil); rec.Code != http.StatusAccepted {
			t.Fatalf("create deployment: %d %s", rec.Code, rec.Body)
		}
		if info, _ := pollDeployment(t, s, fmt.Sprintf("d%d", i)); info.State != "ready" {
			t.Fatalf("d%d settled %s", i, info.State)
		}
	}
	return s
}

// discardWriter is a ResponseWriter that keeps nothing, so AllocsPerRun
// counts the server's allocations and not a recorder's.
type discardWriter struct {
	h     http.Header
	bytes int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.bytes += len(p); return len(p), nil }

// TestReadRouteAllocations pins what one request to each read route class
// allocates inside the server — admission, mux, handler and encode — with
// the request built once and the response discarded. The ceilings are the
// measured figures plus a little room for a toolchain change, not a
// tolerance to grow into.
func TestReadRouteAllocations(t *testing.T) {
	s := newReadServer(t)
	h := s.Handler()
	for _, tc := range []struct {
		path             string
		maxAllocs, maxKB float64
	}{
		// 407 allocations and 29.5 KB while each of the two rows rendered the
		// whole compatibility report; 12 and 0.8 KB now.
		{"/api/v1/deployments", 16, 1.5},
		{"/api/v1/deployments/d1", 22, 3.5}, // 210 and 16.5 KB; now 17 and 2.3 KB, most of it d1's journal page
		{"/api/v1/store", 4, 0.5},           // 12: a ReadDir and a stat per file
		{"/api/v1/scenarios", 5, 0.5},       // 25 and 4.8 KB: every built-in script rebuilt
		{"/api/v1", 2, 0.5},                 // the discovery document is encoded once
		// 10 and 2.07 KB, and 8 and 0.45 KB, while each read was journaled;
		// 8 and 0.84 KB, and 4 and 0.09 KB, now that they render the last poll.
		{"/api/v1/clusters/d1/metrics", 10, 1.2},
		{"/api/v1/clusters/d1/alerts", 6, 0.3},
	} {
		req := httptest.NewRequest("GET", tc.path, nil)
		w := &discardWriter{h: http.Header{}}
		allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 200 {
			h.ServeHTTP(w, req)
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / 200 / 1024
		t.Logf("GET %s: %.0f allocs and %.2f KB a request, %d-byte body", tc.path, allocs, kb, w.bytes/401)
		if !raceEnabled && (allocs > tc.maxAllocs || kb > tc.maxKB) {
			t.Errorf("GET %s allocates %.0f times and %.2f KB a request, want at most %.0f and %.1f KB",
				tc.path, allocs, kb, tc.maxAllocs, tc.maxKB)
		}
	}
}

// TestRowCompatFollowsLiveState: the compat_passed/compat_total a row
// carries are counted from the frontend when the build settles and when an
// update that applies packages runs, the two ways the API changes it. They
// equal the full report's figures as adopted and after an auto-applied
// update has replaced a frontend package. A package erased behind the
// server's back is not a journaled change: the row keeps what it said,
// while the report moves.
func TestRowCompatFollowsLiveState(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, "POST", "/api/v1/deployments", `{"cluster":"limulus","path":"xnit","scheduler":"torque","profiles":["compilers"]}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if info, _ := pollDeployment(t, s, "d1"); info.State != "ready" {
		t.Fatalf("d1 settled %s", info.State)
	}
	dep, _ := depRow(s, "d1")
	d, _ := dep.handle().Deployment()
	frontend := d.Hardware().Frontend.Packages()

	rowsAgree := func(what string) int {
		t.Helper()
		want, err := d.Compat()
		if err != nil {
			t.Fatal(err)
		}
		var one deploymentInfo
		do(t, s, "GET", "/api/v1/deployments/d1", "", &one)
		var list struct {
			Deployments []deploymentInfo `json:"deployments"`
		}
		do(t, s, "GET", "/api/v1/deployments", "", &list)
		for _, row := range append(list.Deployments, one) {
			if row.CompatPassed != want.Passed || row.CompatTotal != want.Total {
				t.Fatalf("%s: row says %d/%d, the report %d/%d", what, row.CompatPassed, row.CompatTotal, want.Passed, want.Total)
			}
		}
		return want.Passed
	}
	adopted := rowsAgree("as adopted")

	update := rpm.NewPackage("openmpi", "99.0-1", rpm.ArchX86_64).Build()
	if err := d.Repo(xcbc.XNITRepoID).Publish(update); err != nil {
		t.Fatal(err)
	}
	var u updatesInfo
	do(t, s, "GET", "/api/v1/clusters/d1/updates?policy=auto-apply", "", &u)
	if got := frontend.Newest("openmpi"); u.AppliedTotal == 0 || got == nil || got.EVR.Compare(update.EVR) != 0 {
		t.Fatalf("auto-apply applied %d updates and left the frontend on %v, want %s", u.AppliedTotal, got, update.NEVRA())
	}
	updated := rowsAgree("after auto-apply")

	// The newest openmpi is what the reference's version check and its
	// mpirun command check read; nothing requires this build.
	var tx rpm.Transaction
	for _, p := range frontend.Installed() {
		if p.Name == "openmpi" {
			tx.Erase(p)
		}
	}
	if err := tx.Run(frontend); err != nil {
		t.Fatal(err)
	}
	if erased, _ := d.Compat(); erased.Passed >= adopted {
		t.Fatalf("%d checks pass with openmpi erased, %d before", erased.Passed, adopted)
	}
	var row deploymentInfo
	do(t, s, "GET", "/api/v1/deployments/d1", "", &row)
	if row.CompatPassed != updated {
		t.Errorf("with openmpi erased behind the server's back the row says %d checks pass, want the %d it journaled", row.CompatPassed, updated)
	}
}
