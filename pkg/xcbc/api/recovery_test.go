package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xcbc/internal/rpm"
	"xcbc/internal/wal"
	"xcbc/pkg/xcbc"
)

// Recovery serves a ready deployment from its row and builds it only when
// a request first needs it live. These tests hold it to what rebuilding
// every one at Open gave: the same registry, the same answers, the same
// report, twice over — and nothing built that no request used, and nothing
// left running when Open fails.

// bodies GETs each path and returns the 200 bodies in order.
func bodies(t *testing.T, s *Server, paths ...string) []string {
	t.Helper()
	var out []string
	for _, path := range paths {
		rec := do(t, s, "GET", path, "", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
		}
		out = append(out, rec.Body.String())
	}
	return out
}

// recoveredBodies renders the deployment listing's ID order and then every
// listed deployment's read-only views: its status with the whole journal
// and, once ready, its cluster summary and jobs.
func recoveredBodies(t *testing.T, s *Server) map[string]string {
	t.Helper()
	var listing struct {
		Deployments []deploymentInfo `json:"deployments"`
	}
	if rec := do(t, s, "GET", "/api/v1/deployments?limit=1000", "", &listing); rec.Code != http.StatusOK {
		t.Fatalf("list deployments: %d %s", rec.Code, rec.Body.String())
	}
	out := make(map[string]string)
	var order []string
	for _, d := range listing.Deployments {
		order = append(order, d.ID)
		paths := []string{"/api/v1/deployments/" + d.ID + "?limit=1000"}
		if d.State == "ready" {
			paths = append(paths, "/api/v1/clusters/"+d.ID, "/api/v1/clusters/"+d.ID+"/jobs")
		}
		for _, path := range paths {
			rec := do(t, s, "GET", path, "", nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
			}
			out[path] = rec.Body.String()
		}
	}
	out["order"] = strings.Join(order, " ")
	return out
}

// diffBodies reports every view on which two renderings disagree, leaving
// out the deployments named in except.
func diffBodies(t *testing.T, what string, got, want map[string]string, except ...string) {
	t.Helper()
	excepted := func(path string) bool {
		return slices.ContainsFunc(except, func(id string) bool {
			return strings.HasSuffix(path, "/"+id) || strings.Contains(path, "/"+id+"?") || strings.Contains(path, "/"+id+"/")
		})
	}
	paths := slices.Collect(maps.Keys(want))
	paths = append(paths, slices.Collect(maps.Keys(got))...)
	slices.Sort(paths)
	for _, path := range slices.Compact(paths) {
		if !excepted(path) && got[path] != want[path] {
			t.Errorf("%s: %s\n got: %s\nwant: %s", what, path, got[path], want[path])
		}
	}
}

// comparable strips what no two recoveries of one population share — time,
// log positions — and counts a build reconciled to failed (interrupted) as
// the archived deployment every later recovery finds in its place.
func (r RecoveryReport) comparable() RecoveryReport {
	r.Archived += r.Interrupted
	r.Interrupted, r.Elapsed, r.SnapshotSeq, r.Records, r.DataDir = 0, 0, 0, 0, ""
	return r
}

func TestRecoveryEquivalentOnFirstUse(t *testing.T) {
	const ready = 36
	var failing atomic.Bool
	var gate atomic.Pointer[chan struct{}]
	entered := make(chan struct{}, 64) // a gated wave enters once per member
	dir := t.TempDir()
	s, _ := openDurable(t, dir, func(c *Config) {
		c.SnapshotEvery = 40 // the crash image holds a snapshot and a tail
		c.DeployOptions = []xcbc.Option{xcbc.WithInstallHook(func(string, int) error {
			if failing.Load() {
				return errors.New("injected PXE fault")
			}
			if g := gate.Load(); g != nil {
				entered <- struct{}{}
				<-*g
			}
			return nil
		})}
	})
	defer s.Close()
	call := func(method, path, body string, want int) {
		t.Helper()
		if rec := do(t, s, method, path, body, nil); rec.Code != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, want, rec.Body.String())
		}
	}
	// gated starts a build and returns once it is parked in the install
	// hook, with the function that lets it go.
	gated := func(body string) (release func()) {
		t.Helper()
		g := make(chan struct{})
		gate.Store(&g)
		call("POST", "/api/v1/deployments", body, http.StatusAccepted)
		<-entered
		gate.Store(nil)
		return sync.OnceFunc(func() { close(g) })
	}

	// The population, in ID order: ready deployments of differing shapes and
	// day-2 histories, with a failed, a cancelled and an in-flight build
	// among them rather than after them.
	ops := 0
	var failed, cancelled, inflight string
	var releaseInflight func()
	for i := 0; i < ready; i++ {
		switch i {
		case 5:
			failing.Store(true)
			call("POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, http.StatusAccepted)
			failed = fmt.Sprintf("d%d", indexLen(s.openTenant.store, func(m *mirror) int { return len(m.Deployments) }))
			if final, _ := pollDeployment(t, s, failed); final.State != "failed" {
				t.Fatalf("%s settled %q, want failed", failed, final.State)
			}
			failing.Store(false)
		case 11:
			release := gated(`{"cluster":"littlefe","parallelism":1}`)
			cancelled = fmt.Sprintf("d%d", indexLen(s.openTenant.store, func(m *mirror) int { return len(m.Deployments) }))
			call("DELETE", "/api/v1/deployments/"+cancelled, "", http.StatusAccepted)
			release()
			if final, _ := pollDeployment(t, s, cancelled); final.State != "cancelled" {
				t.Fatalf("%s settled %q, want cancelled", cancelled, final.State)
			}
		case 17:
			releaseInflight = gated(`{"cluster":"littlefe","parallelism":2}`)
			defer releaseInflight()
			inflight = fmt.Sprintf("d%d", indexLen(s.openTenant.store, func(m *mirror) int { return len(m.Deployments) }))
		}
		body := fmt.Sprintf(`{"cluster":"littlefe","scheduler":"torque","node_count":%d,"parallelism":%d}`, 2+i%4, 1+i%3)
		if i%9 == 4 {
			body = `{"cluster":"limulus","path":"xnit","scheduler":"torque","profiles":["compilers"]}`
		}
		id := deployReady(t, s, body)
		cl := "/api/v1/clusters/" + id
		for j := 0; j <= i%3; j++ {
			call("POST", cl+"/jobs", fmt.Sprintf(`{"name":"job-%d-%d","user":"u%d","cores":%d,"walltime":"1h","runtime":"%dm"}`, i, j, i%4, 1+j%2, 10+5*j), http.StatusCreated)
			ops++
		}
		if i%4 == 1 {
			call("DELETE", cl+"/jobs/1", "", http.StatusOK)
			ops++
		}
		for j := 0; j < i%3; j++ {
			call("POST", cl+"/advance", fmt.Sprintf(`{"duration":"%dm"}`, 7+i), http.StatusOK)
			ops++
		}
		if i%5 == 2 {
			call("GET", cl+"/metrics", "", http.StatusOK) // a read, not an op
		}
		if i%7 == 3 {
			call("GET", cl+"/updates?policy=notify", "", http.StatusOK) // a read too
			call("POST", cl+"/jobs", `{"name":"after-updates","cores":1}`, http.StatusCreated)
			ops++
		}
	}
	want := recoveredBodies(t, s)
	if got := strings.Count(want["order"], " ") + 1; got != ready+3 {
		t.Fatalf("the population lists %d deployments, want %d", got, ready+3)
	}
	// The crash: what the directory holds right now, one build in flight.
	// The store's lock keeps a record from landing halfway through the copy.
	image := t.TempDir()
	st := s.openTenant.store
	st.mu.Lock()
	err := os.CopyFS(image, os.DirFS(dir))
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	releaseInflight()
	s.Close()

	reopen := func(t *testing.T, mut ...func(*Config)) (string, *Server, *RecoveryReport) {
		t.Helper()
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(image)); err != nil {
			t.Fatal(err)
		}
		s, rep := openDurable(t, dir, mut...)
		if rep.SnapshotSeq == 0 || rep.Records == 0 {
			t.Fatalf("the image should hold a snapshot and a log tail: %+v", rep)
		}
		return dir, s, rep
	}
	t.Run("reopened", func(t *testing.T) {
		dir, s, rep := reopen(t)
		defer s.Close()
		if rep.Deployments != ready+3 || rep.Rebuilt != ready || rep.Archived != 2 || rep.Interrupted != 1 || rep.OpsReplayed != ops {
			t.Fatalf("recovery report = %+v\nwant %d deployments: %d rebuilt, 2 archived, 1 interrupted, %d ops replayed", rep, ready+3, ready, ops)
		}
		first := recoveredBodies(t, s)
		diffBodies(t, "recovered", first, want, inflight)
		var got deploymentInfo
		do(t, s, "GET", "/api/v1/deployments/"+inflight, "", &got)
		if got.State != "failed" || !strings.Contains(got.Error, "interrupted") || len(got.Events) != 0 || got.NextCursor != 0 {
			t.Errorf("the in-flight build recovered %q (%s) with %d events, want failed (interrupted) and no journal", got.State, got.Error, len(got.Events))
		}
		s.Close()

		s2, rep2 := openDurable(t, dir)
		defer s2.Close()
		if rep2.comparable() != rep.comparable() {
			t.Errorf("second recovery report = %+v\nfirst = %+v", rep2, rep)
		}
		diffBodies(t, "second recovery", recoveredBodies(t, s2), first)
	})
	t.Run("resume", func(t *testing.T) {
		_, s, rep := reopen(t, func(c *Config) { c.ResumeInterrupted = true })
		defer s.Close()
		if rep.Rebuilt != ready || rep.Archived != 2 || rep.Resumed != 1 || rep.Interrupted != 0 || rep.OpsReplayed != ops {
			t.Fatalf("recovery report = %+v, want %d rebuilt, 2 archived, 1 resumed", rep, ready)
		}
		if final, _ := pollDeployment(t, s, inflight); final.State != "ready" {
			t.Fatalf("the resumed build settled %q: %s", final.State, final.Error)
		}
		diffBodies(t, "recovered with -resume", recoveredBodies(t, s), want, inflight)
	})
}

// TestRestartServesWhileRebuilding pins the readiness contract: Open
// returns without building the ready deployments it recovered, and a
// request that needs one live waits for that deployment's build alone.
// d3's build, started by a GET of its journal, is parked in its install
// hook (d3 is the only one of four with a compute-0-3); while it is held,
// health, d1 and d2, a create and the store report answer, and GET d3
// waits. Released, d3 answers what the server that built it answered.
// Closed instead, every waiter returns, nothing outlives Close and the
// DataDir is as it was.
func TestRestartServesWhileRebuilding(t *testing.T) {
	image := t.TempDir()
	s, _ := openDurable(t, image)
	for _, nodes := range []int{2, 2, 3, 2} {
		id := deployReady(t, s, fmt.Sprintf(`{"cluster":"littlefe","node_count":%d}`, nodes))
		if rec := do(t, s, "POST", "/api/v1/clusters/"+id+"/jobs", `{"name":"hpl","cores":2,"walltime":"1h"}`, nil); rec.Code != http.StatusCreated {
			t.Fatalf("submit on %s: %d %s", id, rec.Code, rec.Body.String())
		}
	}
	want := recoveredBodies(t, s)
	s.Close()

	// async serves one request on its own goroutine.
	async := func(s *Server, path string) <-chan *httptest.ResponseRecorder {
		out := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			out <- rec
		}()
		return out
	}
	d3 := "/api/v1/deployments/d3?limit=1000"
	// openHeld opens a copy of the image and GETs d3, returning once d3's
	// build is parked, with the copy's bytes as Open found them and the
	// pending GET.
	openHeld := func(t *testing.T) (s *Server, dir string, before map[string]string, pending <-chan *httptest.ResponseRecorder, release func()) {
		t.Helper()
		dir = t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(image)); err != nil {
			t.Fatal(err)
		}
		before = dirBytes(t, dir)
		parked, gate := make(chan struct{}), make(chan struct{})
		release = sync.OnceFunc(func() { close(gate) })
		t.Cleanup(release)
		s, _ = openDurable(t, dir, func(c *Config) {
			c.DeployOptions = []xcbc.Option{xcbc.WithInstallHook(func(node string, _ int) error {
				if node == "compute-0-3" {
					close(parked)
					<-gate
				}
				return nil
			})}
		})
		pending = async(s, d3)
		select {
		case <-parked:
		case <-time.After(10 * time.Second):
			t.Fatal("d3's build never reached compute-0-3")
		}
		return s, dir, before, pending, release
	}

	t.Run("release", func(t *testing.T) {
		s, _, _, pending, release := openHeld(t)
		defer s.Close()
		if rec := do(t, s, "GET", "/api/v1/healthz", "", nil); rec.Code != http.StatusOK {
			t.Errorf("healthz while d3 is held = %d", rec.Code)
		}
		for _, id := range []string{"d1", "d2", "d4"} {
			path := "/api/v1/deployments/" + id + "?limit=1000"
			if rec := do(t, s, "GET", path, "", nil); rec.Code != http.StatusOK || rec.Body.String() != want[path] {
				t.Errorf("GET %s while d3 is held = %d\n got: %s\nwant: %s", id, rec.Code, rec.Body.String(), want[path])
			}
		}
		var created deploymentInfo
		if rec := do(t, s, "POST", "/api/v1/deployments", `{"cluster":"littlefe","node_count":2}`, &created); rec.Code != http.StatusAccepted || created.ID != "d5" {
			t.Errorf("create while d3 is held = %d %q, want 202 d5", rec.Code, created.ID)
		}
		select {
		case rec := <-pending:
			t.Fatalf("GET d3 answered while its build is held: %d %s", rec.Code, rec.Body.String())
		case <-time.After(50 * time.Millisecond):
		}

		release()
		if rec := <-pending; rec.Code != http.StatusOK || rec.Body.String() != want[d3] {
			t.Errorf("GET d3 after release = %d\n got: %s\nwant: %s", rec.Code, rec.Body.String(), want[d3])
		}
		got := recoveredBodies(t, s)
		delete(got, "order") // d5 joined the listing
		for path, body := range got {
			if !strings.Contains(path, "/d5") && body != want[path] {
				t.Errorf("after release, GET %s\n got: %s\nwant: %s", path, body, want[path])
			}
		}
	})

	t.Run("close", func(t *testing.T) {
		goroutines := runtime.NumGoroutine()
		s, dir, before, pending, release := openHeld(t)
		waiters := []<-chan *httptest.ResponseRecorder{pending}
		for _, path := range []string{"/api/v1/deployments/d4", "/api/v1/deployments?limit=1000", "/api/v1/clusters/d3/jobs"} {
			waiters = append(waiters, async(s, path))
		}
		closed := make(chan error, 1)
		go func() { closed <- s.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close waited for the held build")
		}
		for i, w := range waiters {
			select {
			case <-w:
			case <-time.After(10 * time.Second):
				t.Fatalf("waiter %d never returned after Close", i)
			}
		}
		release()
		// A released build's goroutines exit with nothing left to wait on.
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines outlived Close, %d before Open", runtime.NumGoroutine(), goroutines)
			}
		}
		if after := dirBytes(t, dir); !maps.Equal(before, after) {
			t.Errorf("Open, a held build and Close changed the DataDir: %d files before, %d after", len(before), len(after))
		}
	})
}

// TestFailedRecoveryRebuildIsNotJournaled reopens a ready deployment with
// a job under an option that makes its rebuild fail to start: it is served
// failed with the rebuild's error, from a row of its own, and nothing is
// journaled — so the next Open, without the option, rebuilds it with its
// job replayed.
func TestFailedRecoveryRebuildIsNotJournaled(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	deployReady(t, s, `{"cluster":"littlefe","node_count":2}`)
	if rec := do(t, s, "POST", "/api/v1/clusters/d1/jobs", `{"name":"hpl","cores":2,"walltime":"1h"}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	want := recoveredBodies(t, s)
	s.Close()
	before := dirBytes(t, dir)

	s, _ = openDurable(t, dir, func(c *Config) { c.DeployOptions = []xcbc.Option{xcbc.WithParallelism(-1)} })
	var got deploymentInfo
	do(t, s, "GET", "/api/v1/deployments/d1", "", &got)
	if got.State != "failed" || !strings.HasPrefix(got.Error, "recovery rebuild: ") {
		t.Errorf("a rebuild that cannot start recovered %q (%s), want failed with the rebuild error", got.State, got.Error)
	}
	if rec := do(t, s, "GET", "/api/v1/clusters/d1", "", nil); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("GET /clusters/d1 after a failed rebuild = %d, want 422: %s", rec.Code, rec.Body.String())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after := dirBytes(t, dir); !maps.Equal(before, after) {
		t.Errorf("the failed rebuild changed the DataDir: %d files before, %d after", len(before), len(after))
	}

	s, _ = openDurable(t, dir)
	defer s.Close()
	diffBodies(t, "rebuilt on the next Open", recoveredBodies(t, s), want)
}

// TestFailedOpenLeavesNoBuildRunning fails Open on a fleet recovery cannot
// recreate, after it has registered four ready deployments and resumed a
// fifth that is by then parked in its third compute's install: the resumed
// build must be cancelled — it never reaches its fourth compute — none of
// the four may have been rebuilt, and no watcher may have journaled
// anything about it.
func TestFailedOpenLeavesNoBuildRunning(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	created := time.Date(2015, 9, 8, 12, 0, 0, 0, time.UTC)
	appendRec := func(typ string, rec any) {
		t.Helper()
		if _, err := l.AppendJSON(typ, rec); err != nil {
			t.Fatalf("append %s: %v", typ, err)
		}
	}
	for _, id := range []string{"d1", "d2", "d3", "d5"} {
		appendRec(recDeploymentCreated, depCreatedRec{ID: id, Path: "xcbc", Created: created,
			Req: createDeploymentRequest{Cluster: "littlefe", NodeCount: 2}})
		appendRec(recDeploymentSettled, depSettledRec{ID: id, State: "ready"})
	}
	// Only d4, in flight, has a third compute node. d5 comes after it and
	// carries an op that cannot replay, which its build would log and skip.
	// d6, in flight on the xnit path, holds Open (below).
	appendRec(recDeploymentCreated, depCreatedRec{ID: "d4", Path: "xcbc", Created: created,
		Req: createDeploymentRequest{Cluster: "littlefe", Parallelism: 1}})
	appendRec(recClusterOp, clusterOpRec{ID: "d5", Op: "job.cancel", JobID: 99})
	appendRec(recDeploymentCreated, depCreatedRec{ID: "d6", Path: "xnit", Created: created,
		Req: createDeploymentRequest{Cluster: "limulus", Path: "xnit", Profiles: []string{"compilers"}}})
	appendRec(recFleetCreated, fleetCreatedRec{ID: "f1", Name: "nowhere", Created: created,
		Req: createFleetRequest{Name: "nowhere", Members: 2, Cluster: "no-such-machine"}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)

	var mu sync.Mutex
	var seen []string
	parked, gate := make(chan struct{}), make(chan struct{})
	s, _, err := Open(Config{DataDir: dir, ResumeInterrupted: true,
		DeployOptions: []xcbc.Option{
			xcbc.WithInstallHook(func(node string, _ int) error {
				mu.Lock()
				seen = append(seen, node)
				mu.Unlock()
				if node == "compute-0-3" {
					close(parked)
					<-gate
				}
				return nil
			}),
			// Resuming d6 runs its vendor leg on Open's goroutine: holding it
			// there until d4 is parked means d4 is running, not pending, when
			// Open fails. d6's adoption then parks before it can settle, so
			// its watcher has nothing to journal either.
			xcbc.WithProgress(func(ev xcbc.Event) {
				switch ev.Stage {
				case "vendor":
					<-parked
				case "repo":
					<-gate
				}
			}),
		}})
	if err == nil {
		s.Close()
		t.Fatal("Open recovered a fleet of machines that do not exist")
	}
	if !strings.Contains(err.Error(), "recovering fleet f1") {
		t.Fatalf("Open failed with %v, want the fleet's recovery error", err)
	}
	close(gate)
	time.Sleep(50 * time.Millisecond) // an uncancelled build reaches compute-0-4 within microseconds
	mu.Lock()
	defer mu.Unlock()
	if slices.Contains(seen, "compute-0-4") || !slices.Contains(seen, "compute-0-3") {
		t.Errorf("the resumed build ran on after Open failed: installs seen %v", seen)
	}
	// Every build here installs compute-0-1; only d4's may have run.
	if n := len(slices.DeleteFunc(slices.Clone(seen), func(node string) bool { return node != "compute-0-1" })); n != 1 {
		t.Errorf("%d builds ran, want only the resumed d4: installs seen %v", n, seen)
	}
	if after := dirBytes(t, dir); !maps.Equal(before, after) {
		t.Errorf("the failed Open changed the DataDir: %d files before, %d after", len(before), len(after))
	}
}

// TestRestartBuildsOnlyWhatIsUsed counts deployment builds through the
// install hook (every build installs compute-0-1 exactly once) across a
// restart on 64 ready deployments and a fleet: Open, both lists, a page
// from a journal's tip and a DELETE build nothing; one day-2 request
// builds that deployment alone, with its ops replayed; two concurrent
// first requests build once. Every body read before the restart reads the
// same after it and after the builds.
func TestRestartBuildsOnlyWhatIsUsed(t *testing.T) {
	const standing = 64
	var builds atomic.Int32
	var gate atomic.Pointer[chan struct{}]
	entered := make(chan struct{}, 2) // one per build the gate holds; a second would fail the count below
	hook := func(c *Config) {
		c.DeployOptions = []xcbc.Option{xcbc.WithInstallHook(func(node string, attempt int) error {
			if node == "compute-0-1" && attempt == 1 {
				builds.Add(1)
				if g := gate.Load(); g != nil {
					entered <- struct{}{}
					<-*g
				}
			}
			return nil
		})}
	}
	dir := t.TempDir()
	s, _ := openDurable(t, dir, hook)
	for i := 1; i <= standing; i++ {
		deployReady(t, s, `{"cluster":"littlefe","node_count":2}`)
	}
	for _, id := range []string{"d1", "d1", "d2"} {
		if rec := do(t, s, "POST", "/api/v1/clusters/"+id+"/jobs", `{"cores":1,"walltime":"1h"}`, nil); rec.Code != http.StatusCreated {
			t.Fatalf("submit on %s: %d %s", id, rec.Code, rec.Body.String())
		}
	}
	do(t, s, "POST", "/api/v1/fleets", `{"name":"tiny","members":2,"nodes":2}`, nil)
	awaitSettled[fleetInfo](t, s, "", "/api/v1/fleets/f1")
	var tip deploymentInfo
	do(t, s, "GET", "/api/v1/deployments/d3?limit=1000", "", &tip)
	paths := []string{"/api/v1/deployments?limit=1000", "/api/v1/fleets", fmt.Sprintf("/api/v1/deployments/d3?cursor=%d", tip.NextCursor),
		"/api/v1/deployments/d1?limit=1000", "/api/v1/clusters/d1/jobs", "/api/v1/clusters/d2/jobs"}
	want := bodies(t, s, paths...)
	s.Close()

	builds.Store(0)
	s, rep := openDurable(t, dir, hook)
	defer s.Close()
	if rep.Rebuilt != standing || rep.OpsReplayed != 3 {
		t.Fatalf("recovery report = %+v, want %d ready deployments and 3 ops restored", rep, standing)
	}
	expect := func(what string, n int32) {
		t.Helper()
		if got := builds.Load(); got != n {
			t.Fatalf("%s: %d deployment builds, want %d", what, got, n)
		}
	}
	if got := bodies(t, s, paths[:3]...); !slices.Equal(got, want[:3]) {
		t.Errorf("lists after the restart\n got: %q\nwant: %q", got, want[:3])
	}
	if rec := do(t, s, "DELETE", "/api/v1/deployments/d64", "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE d64 = %d: %s", rec.Code, rec.Body.String())
	}
	expect("Open, the lists, a page at the tip and a DELETE", 0)
	want[0] = bodies(t, s, paths[0])[0] // without d64

	if got := bodies(t, s, "/api/v1/clusters/d1/jobs"); got[0] != want[4] {
		t.Errorf("d1's jobs after the restart\n got: %s\nwant: %s", got[0], want[4])
	}
	expect("one day-2 request", 1)

	// The first request's build is held in the hook while the second
	// arrives; the second has no event to wait on, so it gets a moment to
	// reach the build before the hold lifts.
	g := make(chan struct{})
	gate.Store(&g)
	var first []<-chan *httptest.ResponseRecorder
	for i := range 2 {
		out := make(chan *httptest.ResponseRecorder, 1)
		go func() { out <- do(t, s, "GET", "/api/v1/clusters/d2/jobs", "", nil) }()
		first = append(first, out)
		if i == 0 {
			<-entered
		}
	}
	time.Sleep(20 * time.Millisecond) // the second request has no event to wait on
	close(g)
	for _, out := range first {
		if rec := <-out; rec.Code != http.StatusOK || rec.Body.String() != want[5] {
			t.Errorf("d2's jobs on a concurrent first request = %d\n got: %s\nwant: %s", rec.Code, rec.Body.String(), want[5])
		}
	}
	expect("two concurrent first requests", 2)

	if got := bodies(t, s, paths...); !slices.Equal(got, want) {
		t.Errorf("bodies after the builds\n got: %q\nwant: %q", got, want)
	}
	expect("reading what the builds left", 2)
}

// TestRestartProvisionsFleetsOnFirstUse restarts on two provisioned
// fleets, f1 with one settled run: listing f1's runs and paging s1's trace
// provision neither fleet, two concurrent GETs of f2 provision f2 alone,
// and GET f1 then answers what it did before the restart. After Close, a
// first use provisions nothing.
func TestRestartProvisionsFleetsOnFirstUse(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	for _, id := range []string{"f1", "f2"} {
		do(t, s, "POST", "/api/v1/fleets", `{"name":"tiny","members":2,"nodes":2,"workers":2}`, nil)
		awaitSettled[fleetInfo](t, s, "", "/api/v1/fleets/"+id)
	}
	if rec := do(t, s, "POST", "/api/v1/fleets/f1/scenarios", `{"scenario": `+smallScenario+`}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run scenario: %d %s", rec.Code, rec.Body.String())
	}
	awaitSettled[scenarioRunInfo](t, s, "", "/api/v1/fleets/f1/scenarios/s1")
	paths := []string{"/api/v1/fleets/f1/scenarios", "/api/v1/fleets/f1/scenarios/s1?cursor=0&limit=50",
		"/api/v1/fleets/f1/scenarios/s1?cursor=50&limit=50", "/api/v1/fleets/f1"}
	want := bodies(t, s, paths...)
	s.Close()

	provisioned := func(s *Server) (got [2]bool) {
		t.Helper()
		for i, id := range []string{"f1", "f2"} {
			fr, ok := fleetRow(s, id)
			if !ok {
				t.Fatalf("fleet %s not recovered", id)
			}
			got[i] = fr.fl.Provisioned()
		}
		return got
	}
	s, rep := openDurable(t, dir)
	defer s.Close()
	if rep.Fleets != 2 || rep.Runs != 1 || rep.Replayed != 0 {
		t.Fatalf("recovery report = %+v, want 2 fleets and 1 settled run", rep)
	}
	if got := bodies(t, s, paths[:3]...); !slices.Equal(got, want[:3]) {
		t.Errorf("f1's runs after the restart\n got: %q\nwant: %q", got, want[:3])
	}
	if got := provisioned(s); got != [2]bool{} {
		t.Fatalf("after Open and reading f1's runs, provisioned (f1, f2) = %v, want neither", got)
	}
	// Two first requests at once share f2's one provisioning.
	f2s := make(chan *httptest.ResponseRecorder, 2)
	for range 2 {
		go func() { f2s <- do(t, s, "GET", "/api/v1/fleets/f2", "", nil) }()
	}
	for range 2 {
		var f2 fleetInfo
		rec := <-f2s
		if err := json.Unmarshal(rec.Body.Bytes(), &f2); err != nil || rec.Code != http.StatusOK || f2.Status.Ready != 2 {
			t.Fatalf("GET f2 = %d %+v (%v), want 200 with 2 members ready", rec.Code, f2.Status, err)
		}
	}
	if got := provisioned(s); got != [2]bool{false, true} {
		t.Fatalf("after GET f2, provisioned (f1, f2) = %v, want f2 alone", got)
	}
	if got := bodies(t, s, paths...); !slices.Equal(got, want) {
		t.Errorf("bodies after f1's first use\n got: %q\nwant: %q", got, want)
	}
	if got := provisioned(s); got != [2]bool{true, true} {
		t.Fatalf("after GET f1, provisioned (f1, f2) = %v, want both", got)
	}

	s.Close()
	s, _ = openDurable(t, dir)
	s.Close()
	fr, _ := fleetRow(s, "f1")
	if fr.fleet().Provisioned() {
		t.Error("a first use after Close provisioned f1")
	}
}

// TestRestartKeepsCompatOfAppliedUpdates: an update that applies packages
// moves a row's compat counts, and the row keeps them across a restart —
// before the deployment is built, and after its first use rebuilds it and
// replays the update, when they equal the live frontend's count. Its
// vendor image ships an openmpi older than the reference requires, which
// the auto-applied update replaces; builds are counted by their vendor
// stage.
func TestRestartKeepsCompatOfAppliedUpdates(t *testing.T) {
	var builds atomic.Int32
	old := func(c *Config) {
		c.DeployOptions = []xcbc.Option{xcbc.WithBasePackages(
			rpm.NewPackage("environment-modules", "3.2.10-2.el6", rpm.ArchX86_64).Build(),
			rpm.NewPackage("openmpi", "1.5.4-1.el6", rpm.ArchX86_64).Build()),
			xcbc.WithProgress(func(ev xcbc.Event) {
				if ev.Stage == "vendor" {
					builds.Add(1)
				}
			})}
	}
	row := func(s *Server) deploymentInfo {
		t.Helper()
		var list struct {
			Deployments []deploymentInfo `json:"deployments"`
		}
		do(t, s, "GET", "/api/v1/deployments", "", &list)
		if len(list.Deployments) != 1 {
			t.Fatalf("listed %d deployments, want 1", len(list.Deployments))
		}
		return list.Deployments[0]
	}
	live := func(s *Server) (passed, total int) {
		t.Helper()
		dep, _ := depRow(s, "d1")
		d, _ := dep.handle().Deployment()
		passed, total, err := d.CompatCounts()
		if err != nil {
			t.Fatal(err)
		}
		return passed, total
	}
	dir := t.TempDir()
	s, _ := openDurable(t, dir, old)
	deployReady(t, s, `{"cluster":"limulus","path":"xnit","scheduler":"torque","profiles":[]}`)
	adopted := row(s)
	var u updatesInfo
	if rec := do(t, s, "GET", "/api/v1/clusters/d1/updates?policy=auto-apply", "", &u); rec.Code != http.StatusOK || u.AppliedTotal == 0 {
		t.Fatalf("auto-apply = %d, %d applied: %s", rec.Code, u.AppliedTotal, rec.Body.String())
	}
	updated := row(s)
	if passed, total := live(s); updated.CompatPassed != passed || updated.CompatTotal != total || passed <= adopted.CompatPassed {
		t.Fatalf("after the update the row says %d/%d and the frontend %d/%d; adopted %d/%d",
			updated.CompatPassed, updated.CompatTotal, passed, total, adopted.CompatPassed, adopted.CompatTotal)
	}
	s.Close()

	builds.Store(0)
	s, _ = openDurable(t, dir, old)
	defer s.Close()
	if got := row(s); !reflect.DeepEqual(got, updated) || builds.Load() != 0 {
		t.Errorf("restored row = %+v after %d builds, want %+v after none", got, builds.Load(), updated)
	}
	if rec := do(t, s, "GET", "/api/v1/clusters/d1", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("GET /clusters/d1 = %d: %s", rec.Code, rec.Body.String())
	}
	if passed, total := live(s); updated.CompatPassed != passed || updated.CompatTotal != total {
		t.Errorf("after the rebuild replayed the update the frontend counts %d/%d, the row %d/%d", passed, total, updated.CompatPassed, updated.CompatTotal)
	}
	if got := row(s); !reflect.DeepEqual(got, updated) || builds.Load() != 1 {
		t.Errorf("row after %d builds = %+v, want %+v after one", builds.Load(), got, updated)
	}
}

// TestRecoverySkipsJournaledReads: an older binary journaled each metrics
// and alerts read and each notify update check as a cluster.op, and
// testdata/datadir-parent's log holds a metrics read and a notify check.
// Open only scans the logs, so it counts the reads and parses nothing; the
// rebuild skips them instead of replaying them, so nothing logs a failed
// replay. A snapshot taken after recovery keeps d1's log as recovered, and
// the jobs the rebuild replays are the same once that snapshot is all a
// restart has.
func TestRecoverySkipsJournaledReads(t *testing.T) {
	var failing atomic.Bool
	var logged bytes.Buffer
	cfg := pinConfig(&failing)
	cfg.DataDir = t.TempDir()
	cfg.Logger = log.New(&logged, "", 0)
	if err := os.CopyFS(cfg.DataDir, os.DirFS(pinDataDir)); err != nil {
		t.Fatal(err)
	}
	parsed := countParses(t)
	s, rep, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// d1 journaled 7 ops, two of them reads.
	if rep.Records == 0 || rep.OpsReplayed != 7 || len(parsed()) != 0 {
		t.Fatalf("recovery report = %+v after %d op-log parses, want a log tail, 7 ops and none parsed", rep, len(parsed()))
	}
	st := s.openTenant.store
	recovered := slices.Clone(lookup(st, st.m.Deployments, "d1").Ops.raw)
	jobs := do(t, s, "GET", "/api/v1/clusters/d1/jobs", "", nil).Body.String()
	if strings.Contains(logged.String(), "replaying") {
		t.Errorf("the rebuild replayed a read:\n%s", logged.String())
	}
	st.mu.Lock()
	err = st.snapshotLocked()
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	l, rec, err := wal.Open(cfg.DataDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var m mirror
	if err := json.Unmarshal(rec.Snapshot, &m); err != nil {
		t.Fatal(err)
	}
	var snapped []byte
	if d1 := m.Deployments["d1"]; d1 != nil {
		snapped = d1.Ops.raw
	}
	if len(rec.Records) != 0 || !bytes.Equal(snapped, recovered) {
		t.Fatalf("the snapshot after recovery holds %d records after it and d1 ops\n%s\nwant none after it and the recovered\n%s", len(rec.Records), snapped, recovered)
	}

	s, _, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if after := do(t, s, "GET", "/api/v1/clusters/d1/jobs", "", nil).Body.String(); after != jobs {
		t.Errorf("jobs rebuilt from the new snapshot:\n got %s\nwant %s", after, jobs)
	}
}

// countParses counts op-log parses, and the logs parsed, until the test ends.
func countParses(t *testing.T) func() []string {
	var mu sync.Mutex
	var parsed []string
	parse := parseOps
	parseOps = func(l opLog) ([]clusterOpRec, error) {
		mu.Lock()
		parsed = append(parsed, string(l.raw))
		mu.Unlock()
		return parse(l)
	}
	t.Cleanup(func() { parseOps = parse })
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(parsed)
	}
}

// TestOpLogParsedOnFirstUse restarts on 64 ready deployments with 16 jobs
// each, and an auto-apply update check on d1 before its jobs, all of them
// in the snapshot: Open parses no op log, yet counts every op; the first
// GET of d1's jobs parses d1's log alone and answers what it did before
// the restart; concurrent first uses of d2 parse d2's log once.
func TestOpLogParsedOnFirstUse(t *testing.T) {
	const standing, jobs = 64, 16
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	for i := 1; i <= standing; i++ {
		id := deployReady(t, s, `{"cluster":"littlefe","node_count":2}`)
		if i == 1 {
			if rec := do(t, s, "GET", "/api/v1/clusters/d1/updates?policy=auto-apply", "", nil); rec.Code != http.StatusOK {
				t.Fatalf("auto-apply on d1: %d %s", rec.Code, rec.Body.String())
			}
		}
		for range jobs {
			if rec := do(t, s, "POST", "/api/v1/clusters/"+id+"/jobs", `{"cores":1,"walltime":"1h"}`, nil); rec.Code != http.StatusCreated {
				t.Fatalf("submit on %s: %d %s", id, rec.Code, rec.Body.String())
			}
		}
	}
	want := bodies(t, s, "/api/v1/clusters/d1/jobs", "/api/v1/clusters/d2/jobs")
	st := s.openTenant.store
	st.mu.Lock()
	err := st.snapshotLocked()
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	parsed := countParses(t)
	s, rep := openDurable(t, dir)
	defer s.Close()
	if rep.Records != 0 || rep.Rebuilt != standing || rep.OpsReplayed != standing*jobs+1 || len(parsed()) != 0 {
		t.Fatalf("recovery report = %+v after %d op-log parses, want no log tail, %d ready and %d ops, none parsed",
			rep, len(parsed()), standing, standing*jobs+1)
	}
	logOf := func(id string) string {
		return string(lookup(s.openTenant.store, s.openTenant.store.m.Deployments, id).Ops.raw)
	}
	if got := bodies(t, s, "/api/v1/clusters/d1/jobs")[0]; got != want[0] || !slices.Equal(parsed(), []string{logOf("d1")}) {
		t.Fatalf("d1's first use parsed %d logs (d1's: %v) and answered\n%s\nwant\n%s",
			len(parsed()), slices.Contains(parsed(), logOf("d1")), got, want[0])
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if rec := do(t, s, "GET", "/api/v1/clusters/d2/jobs", "", nil); rec.Body.String() != want[1] {
				t.Errorf("d2's jobs on a concurrent first use = %d %s", rec.Code, rec.Body.String())
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := parsed(); len(got) != 2 || got[1] != logOf("d2") {
		t.Errorf("after concurrent first uses of d2, %d op-log parses, want d1's and then d2's once", len(got))
	}
}

// TestOpLogNotAListFailsOnFirstUse: a ready row whose op log is valid JSON
// but no list of ops passes Open's scan, which only validates it, so the
// deployment reads failed once its first use parses the log, with where
// the decoder stopped in its reason. It is the one refusal Open no longer
// makes.
func TestOpLogNotAListFailsOnFirstUse(t *testing.T) {
	for _, ops := range []string{`{"op":"job.submit"}`, `5`, `[1]`, `[{"op":5}]`, `[{"op":"updates","at":"bad"}]`} {
		t.Run(ops, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			snap := `{"deployments":{"d1":{"created":{"id":"d1","path":"xcbc","req":{"cluster":"littlefe"}},"ops":` + ops +
				`,"state":"ready"}},"fleets":{},"next_id":1,"next_fleet_id":0}`
			if err := errors.Join(l.Snapshot([]byte(snap)), l.Close()); err != nil {
				t.Fatal(err)
			}
			s, rep := openDurable(t, dir)
			defer s.Close()
			if rep.Rebuilt != 1 {
				t.Fatalf("recovery report = %+v, want d1 ready", rep)
			}
			if rec := do(t, s, "GET", "/api/v1/clusters/d1/jobs", "", nil); rec.Code != http.StatusUnprocessableEntity {
				t.Errorf("GET d1's jobs = %d %s, want 422", rec.Code, rec.Body.String())
			}
			var d deploymentInfo
			do(t, s, "GET", "/api/v1/deployments/d1", "", &d)
			if d.State != "failed" || !strings.Contains(d.Error, "decoding its ops") || !strings.Contains(d.Error, "offset") {
				t.Errorf("d1 reads %q: %s, want failed with the decoder's offset", d.State, d.Error)
			}
		})
	}
}

// TestSnapshotOpLogIsWhatMarshalWrote holds a snapshot's op logs to the
// bytes json.Marshal writes for rows whose ops are structs, as they were
// before the logs stayed bytes: after live ops whose strings json.Marshal
// escapes, after a restart appended to a recovered log, and after a
// restart replayed ops from the log tail.
func TestSnapshotOpLogIsWhatMarshalWrote(t *testing.T) {
	type parentRow struct {
		Created depCreatedRec  `json:"created"`
		Events  []eventInfo    `json:"events,omitempty"`
		Ops     []clusterOpRec `json:"ops,omitempty"`
		State   string         `json:"state,omitempty"`
		Error   string         `json:"error,omitempty"`
		Summary *depSummary    `json:"summary,omitempty"`
	}
	type parentMirror struct {
		Deployments    map[string]*parentRow      `json:"deployments"`
		Fleets         map[string]*fleetMirror    `json:"fleets"`
		Campaigns      map[string]*campaignMirror `json:"campaigns,omitempty"`
		NextID         int                        `json:"next_id"`
		NextFleetID    int                        `json:"next_fleet_id"`
		NextCampaignID int                        `json:"next_campaign_id,omitempty"`
	}
	dir := t.TempDir()
	check := func(s *Server, what string) {
		t.Helper()
		st := s.openTenant.store
		st.mu.Lock()
		err := st.snapshotLocked()
		m := st.m
		parent := parentMirror{Deployments: map[string]*parentRow{}, Fleets: m.Fleets, Campaigns: m.Campaigns,
			NextID: m.NextID, NextFleetID: m.NextFleetID, NextCampaignID: m.NextCampaignID}
		for id, d := range m.Deployments {
			ops, perr := parseOps(d.Ops)
			err = errors.Join(err, perr)
			parent.Deployments[id] = &parentRow{d.Created, d.Events, ops, d.State, d.Error, d.Summary}
		}
		st.mu.Unlock()
		want, merr := json.Marshal(parent)
		if err = errors.Join(err, merr, s.Close()); err != nil {
			t.Fatal(err)
		}
		l, rec, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if len(rec.Records) != 0 || string(rec.Snapshot) != string(want) {
			t.Fatalf("%s: snapshot with %d records after it\n got: %s\nwant: %s", what, len(rec.Records), rec.Snapshot, want)
		}
	}
	s, _ := openDurable(t, dir)
	deployReady(t, s, `{"cluster":"littlefe","node_count":2}`)
	deployReady(t, s, `{"cluster":"littlefe","node_count":2}`)
	for _, op := range []struct{ method, path, body string }{
		{"POST", "/api/v1/clusters/d1/jobs", `{"name":"<hpl> & \"co\"","user":"é日本","cores":1,"walltime":"1h","script":"a b\tc"}`},
		{"POST", "/api/v1/clusters/d1/jobs", `{"cores":2,"walltime":"2h","runtime":"30m"}`},
		{"POST", "/api/v1/clusters/d1/advance", `{"duration":"10m"}`},
		{"DELETE", "/api/v1/clusters/d1/jobs/2", ``},
		{"GET", "/api/v1/clusters/d1/updates?policy=auto-apply", ``},
		{"GET", "/api/v1/clusters/d2/updates", ``},
	} {
		if rec := do(t, s, op.method, op.path, op.body, nil); rec.Code/100 != 2 {
			t.Fatalf("%s %s = %d %s", op.method, op.path, rec.Code, rec.Body.String())
		}
	}
	check(s, "live ops")
	s, _ = openDurable(t, dir)
	if rec := do(t, s, "POST", "/api/v1/clusters/d1/jobs", `{"cores":1,"walltime":"1h"}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("submit after the restart = %d %s", rec.Code, rec.Body.String())
	}
	check(s, "an op appended to a recovered log")
	// Ops in the log tail: a restart copies each from its payload.
	s, _ = openDurable(t, dir)
	for _, path := range []string{"/api/v1/clusters/d1/jobs", "/api/v1/clusters/d2/jobs"} {
		if rec := do(t, s, "POST", path, `{"name":"<tail> & é","cores":1,"walltime":"1h"}`, nil); rec.Code != http.StatusCreated {
			t.Fatalf("submit to the tail = %d %s", rec.Code, rec.Body.String())
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, rep := openDurable(t, dir)
	if rep.Records != 2 {
		t.Fatalf("recovery report = %+v, want the two submits in the log tail", rep)
	}
	check(s, "ops recovered from the log tail")
}
