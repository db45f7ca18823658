package api

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xcbc/internal/wal"
	"xcbc/pkg/xcbc"
)

// Recovery starts the builds it needs ahead of the deployment it is
// recovering. These tests hold it to what recovering one deployment at a
// time gave: the same registry, the same answers, the same report, twice
// over — and nothing left running when Open fails.

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

func TestRecoveryEquivalentUnderLookAhead(t *testing.T) {
	const ready = 36 // more than one look-ahead window, whatever the pool's size
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
			failed = fmt.Sprintf("d%d", s.openTenant.deployments.len())
			if final, _ := pollDeployment(t, s, failed); final.State != "failed" {
				t.Fatalf("%s settled %q, want failed", failed, final.State)
			}
			failing.Store(false)
		case 11:
			release := gated(`{"cluster":"littlefe","parallelism":1}`)
			cancelled = fmt.Sprintf("d%d", s.openTenant.deployments.len())
			call("DELETE", "/api/v1/deployments/"+cancelled, "", http.StatusAccepted)
			release()
			if final, _ := pollDeployment(t, s, cancelled); final.State != "cancelled" {
				t.Fatalf("%s settled %q, want cancelled", cancelled, final.State)
			}
		case 17:
			releaseInflight = gated(`{"cluster":"littlefe","parallelism":2}`)
			defer releaseInflight()
			inflight = fmt.Sprintf("d%d", s.openTenant.deployments.len())
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
			call("GET", cl+"/metrics", "", http.StatusOK)
			ops++
		}
		if i%7 == 3 {
			call("GET", cl+"/updates?policy=notify", "", http.StatusOK)
			call("POST", cl+"/jobs", `{"name":"after-updates","cores":1}`, http.StatusCreated)
			ops += 2
		}
	}
	want := recoveredBodies(t, s)
	if got := strings.Count(want["order"], " ") + 1; got != ready+3 {
		t.Fatalf("the population lists %d deployments, want %d", got, ready+3)
	}
	for _, id := range strings.Fields(want["order"]) {
		if id != inflight {
			waitJournaled(t, s, id)
		}
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
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
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
	}
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

// untilClosed is a log writer that holds each line until its channel closes.
type untilClosed <-chan struct{}

func (c untilClosed) Write(p []byte) (int, error) {
	<-c
	return len(p), nil
}

// TestFailedOpenLeavesNoBuildRunning fails Open on a fleet recovery cannot
// recreate, after it has rebuilt four ready deployments and resumed a fifth
// that is by then parked in its third compute's install: the resumed build
// must be cancelled — it never reaches its fourth compute — and no watcher
// may have journaled anything about it.
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
	// carries an op that cannot replay, which recovery logs and skips.
	appendRec(recDeploymentCreated, depCreatedRec{ID: "d4", Path: "xcbc", Created: created,
		Req: createDeploymentRequest{Cluster: "littlefe", Parallelism: 1}})
	appendRec(recClusterOp, clusterOpRec{ID: "d5", Op: "job.cancel", JobID: 99})
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
		// The skipped op's log line holds recovery at d5 until d4 is parked,
		// so the build is running, not pending, when Open fails.
		Logger: log.New(untilClosed(parked), "", 0),
		DeployOptions: []xcbc.Option{xcbc.WithInstallHook(func(node string, _ int) error {
			mu.Lock()
			seen = append(seen, node)
			mu.Unlock()
			if node == "compute-0-3" {
				close(parked)
				<-gate
			}
			return nil
		})}})
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
	if after := dirBytes(t, dir); !maps.Equal(before, after) {
		t.Errorf("the failed Open changed the DataDir: %d files before, %d after", len(before), len(after))
	}
}
