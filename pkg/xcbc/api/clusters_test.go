package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xcbc/internal/repo"
	"xcbc/pkg/xcbc"
)

// TestDiscovery checks the GET /api/v1 discovery document: version plus a
// route listing that includes the day-2 cluster routes, so clients can
// feature-detect them.
func TestDiscovery(t *testing.T) {
	s := newTestServer(t)
	var doc struct {
		Version string `json:"version"`
		Routes  []struct {
			Method string `json:"method"`
			Path   string `json:"path"`
			Doc    string `json:"doc"`
		} `json:"routes"`
	}
	rec := do(t, s, "GET", "/api/v1", "", &doc)
	if rec.Code != http.StatusOK {
		t.Fatalf("discovery: %d %s", rec.Code, rec.Body.String())
	}
	if doc.Version != Version {
		t.Fatalf("version = %q", doc.Version)
	}
	want := map[string]bool{
		"GET /api/v1":                             false,
		"POST /api/v1/clusters/{id}/jobs":         false,
		"GET /api/v1/clusters/{id}/metrics":       false,
		"POST /api/v1/clusters/{id}/validate":     false,
		"GET /api/v1/clusters/{id}/updates":       false,
		"POST /api/v1/deployments":                false,
		"DELETE /api/v1/clusters/{id}/jobs/{jid}": false,
	}
	for _, r := range doc.Routes {
		key := r.Method + " " + r.Path
		if _, tracked := want[key]; tracked {
			want[key] = true
		}
		if r.Doc == "" {
			t.Errorf("route %s has no doc string", key)
		}
	}
	for key, seen := range want {
		if !seen {
			t.Errorf("discovery missing route %s", key)
		}
	}
	// The discovery path rejects other verbs with 405, not 404.
	if rec := do(t, s, "DELETE", "/api/v1", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /api/v1 = %d, want 405", rec.Code)
	}
}

// deployReady creates a deployment through the API and polls it to ready,
// returning its ID (shared by the /clusters view).
func deployReady(t *testing.T, s *Server, body string) string {
	t.Helper()
	var created deploymentInfo
	rec := do(t, s, "POST", "/api/v1/deployments", body, &created)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	final, _ := pollDeployment(t, s, created.ID)
	if final.State != "ready" {
		t.Fatalf("deployment settled %q: %s", final.State, final.Error)
	}
	return created.ID
}

// TestClusterNotReadyConflict drives the 409 contract: every day-2 route
// on an in-flight build answers Conflict with the state and a hint (what
// clusterctl turns into exit 2), and an unknown ID stays 404.
func TestClusterNotReadyConflict(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := New(Config{
		DeployOptions: []xcbc.Option{xcbc.WithInstallHook(func(string, int) error {
			<-gate
			return nil
		})},
	})
	var created deploymentInfo
	rec := do(t, s, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, &created)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	id := created.ID

	var conflict struct {
		Error string `json:"error"`
		State string `json:"state"`
		Hint  string `json:"hint"`
	}
	cases := []struct{ method, path, body string }{
		{"GET", "/api/v1/clusters/" + id, ""},
		{"POST", "/api/v1/clusters/" + id + "/jobs", `{"cores":1}`},
		{"GET", "/api/v1/clusters/" + id + "/jobs", ""},
		{"GET", "/api/v1/clusters/" + id + "/jobs/1", ""},
		{"DELETE", "/api/v1/clusters/" + id + "/jobs/1", ""},
		{"GET", "/api/v1/clusters/" + id + "/metrics", ""},
		{"GET", "/api/v1/clusters/" + id + "/alerts", ""},
		{"POST", "/api/v1/clusters/" + id + "/validate", `{}`},
		{"GET", "/api/v1/clusters/" + id + "/updates", ""},
		{"POST", "/api/v1/clusters/" + id + "/advance", `{"duration":"1m"}`},
	}
	for _, tc := range cases {
		rec := do(t, s, tc.method, tc.path, tc.body, &conflict)
		if rec.Code != http.StatusConflict {
			t.Errorf("%s %s mid-build = %d, want 409 (body %s)", tc.method, tc.path, rec.Code, rec.Body.String())
			continue
		}
		if conflict.State == "" || conflict.Hint == "" || conflict.Error == "" {
			t.Errorf("%s %s conflict body incomplete: %+v", tc.method, tc.path, conflict)
		}
	}
	// The list view still works and reports the record as not operable.
	var list struct {
		Clusters []clusterInfo `json:"clusters"`
	}
	do(t, s, "GET", "/api/v1/clusters", "", &list)
	if len(list.Clusters) != 1 || list.Clusters[0].Operable {
		t.Fatalf("clusters mid-build = %+v", list.Clusters)
	}
	// Unknown IDs are 404, not 409.
	if rec := do(t, s, "GET", "/api/v1/clusters/nosuch", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown cluster = %d, want 404", rec.Code)
	}
	if rec := do(t, s, "GET", "/api/v1/clusters/nosuch/metrics", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown cluster metrics = %d, want 404", rec.Code)
	}
}

// TestClusterFailedBuildUnprocessable distinguishes the terminal case from
// the transient one: a build that settled "failed" answers 422 (waiting is
// pointless — not clusterctl's retryable exit 2), with the build error
// attached.
func TestClusterFailedBuildUnprocessable(t *testing.T) {
	s := New(Config{
		DeployOptions: []xcbc.Option{xcbc.WithInstallHook(func(string, int) error {
			return fmt.Errorf("injected PXE fault")
		})},
	})
	var created deploymentInfo
	rec := do(t, s, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, &created)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	final, _ := pollDeployment(t, s, created.ID)
	if final.State != "failed" {
		t.Fatalf("deployment settled %q, want failed", final.State)
	}
	var body struct {
		Error      string `json:"error"`
		State      string `json:"state"`
		Hint       string `json:"hint"`
		BuildError string `json:"build_error"`
	}
	rec = do(t, s, "GET", "/api/v1/clusters/"+created.ID+"/metrics", "", &body)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("failed cluster = %d, want 422 (body %s)", rec.Code, rec.Body.String())
	}
	if body.State != "failed" || body.Hint == "" || body.BuildError == "" {
		t.Fatalf("422 body = %+v", body)
	}
}

// TestResponsesReadOneSettlement polls builds while they settle: 32 of
// them, half failed by their install hook, each read through the cluster
// and deployment routes by 4 goroutines at once. Each response renders
// from one read of the deployment's status, so no 422 names a state the
// build can still leave (or is operable in), and no deployment body pairs
// building with an error.
func TestResponsesReadOneSettlement(t *testing.T) {
	// Every first install attempt fails: a build with no retry budget
	// quarantines every compute and fails, one with a retry lands ready.
	s := New(Config{DeployOptions: []xcbc.Option{xcbc.WithInstallHook(func(_ string, attempt int) error {
		if attempt == 1 {
			return fmt.Errorf("injected PXE fault")
		}
		return nil
	})}})
	const builds = 32
	ids := make([]string, builds)
	for i := range ids {
		var created deploymentInfo
		body := `{"cluster":"littlefe","parallelism":4,"retries":1}`
		if i%2 == 1 {
			body = `{"cluster":"littlefe","parallelism":4}`
		}
		if rec := do(t, s, "POST", "/api/v1/deployments", body, &created); rec.Code != http.StatusAccepted {
			t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
		}
		ids[i] = created.ID
	}
	get := func(path string, out any) int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Errorf("GET %s: bad JSON %q: %v", path, rec.Body.String(), err)
		}
		return rec.Code
	}
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for settled := 0; settled < builds && time.Now().Before(deadline); {
				settled = 0
				for _, id := range ids {
					var refused struct{ State, Hint string }
					if code := get("/api/v1/clusters/"+id, &refused); code == http.StatusUnprocessableEntity {
						for _, live := range []string{"ready", "pending", "building"} {
							if refused.State == live || strings.Contains(refused.Hint, "settled "+live) {
								t.Errorf("%s: 422 for a deployment reading %q: %+v", id, live, refused)
							}
						}
					}
					var dep deploymentInfo
					get("/api/v1/deployments/"+id, &dep)
					if dep.State == "building" && dep.Error != "" {
						t.Errorf("%s: deployment body pairs building with error %q", id, dep.Error)
					}
					if dep.State == "ready" || dep.State == "failed" {
						settled++
					}
				}
			}
		}()
	}
	wg.Wait()
	failed := 0
	for _, id := range ids {
		final, _ := pollDeployment(t, s, id)
		if final.State == "failed" {
			failed++
		}
	}
	if failed != builds/2 {
		t.Fatalf("%d of %d builds failed, want half", failed, builds)
	}
}

// TestClusterLifecycleREST is the end-to-end day-2 arc over REST: deploy
// async, open the cluster view, submit jobs, advance virtual time, watch
// metrics, cancel, validate, check updates, and finally delete the record.
func TestClusterLifecycleREST(t *testing.T) {
	s := newTestServer(t)
	id := deployReady(t, s, `{"cluster":"littlefe","scheduler":"torque","parallelism":4}`)

	// The cluster view of the ready record is operable.
	var info clusterInfo
	rec := do(t, s, "GET", "/api/v1/clusters/"+id, "", &info)
	if rec.Code != http.StatusOK {
		t.Fatalf("get cluster: %d %s", rec.Code, rec.Body.String())
	}
	if !info.Operable || info.Scheduler != "torque" || info.Nodes != 6 {
		t.Fatalf("cluster info = %+v", info)
	}

	// Submit a job that fits (runs immediately) and one that queues.
	var small jobInfo
	rec = do(t, s, "POST", "/api/v1/clusters/"+id+"/jobs",
		`{"name":"relax","user":"alice","cores":2,"walltime":"1h","runtime":"10m"}`, &small)
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	if small.ID != 1 || small.State != "running" {
		t.Fatalf("small job = %+v", small)
	}
	var big jobInfo
	do(t, s, "POST", "/api/v1/clusters/"+id+"/jobs",
		`{"name":"assembly","user":"carol","cores":10,"walltime":"2h","runtime":"1h"}`, &big)
	if big.State != "queued" {
		t.Fatalf("big job = %+v", big)
	}

	// Bad submissions keep their 4xx statuses.
	if rec := do(t, s, "POST", "/api/v1/clusters/"+id+"/jobs", `{"cores":10000}`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized job = %d, want 400", rec.Code)
	}
	if rec := do(t, s, "POST", "/api/v1/clusters/"+id+"/jobs", `{"cores":1,"walltime":"-5m"}`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("negative walltime = %d, want 400", rec.Code)
	}
	if rec := do(t, s, "POST", "/api/v1/clusters/"+id+"/jobs", `{"cores":1,"walltime":"8761h","runtime":"1h"}`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("walltime over a year = %d, want 400", rec.Code)
	}
	if rec := do(t, s, "POST", "/api/v1/clusters/"+id+"/jobs", `not json`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad body = %d, want 400", rec.Code)
	}

	// Filtered listing.
	var queued struct {
		Count int       `json:"count"`
		Jobs  []jobInfo `json:"jobs"`
	}
	do(t, s, "GET", "/api/v1/clusters/"+id+"/jobs?state=queued", "", &queued)
	if queued.Count != 1 || queued.Jobs[0].ID != big.ID {
		t.Fatalf("queued listing = %+v", queued)
	}
	// A typoed state filter is rejected, not silently empty.
	if rec := do(t, s, "GET", "/api/v1/clusters/"+id+"/jobs?state=complete", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("typoed state filter = %d, want 400", rec.Code)
	}

	// Metrics read the last poll: the one taken when the cluster was first
	// opened, before any job, sees every node idle.
	var m metricsInfo
	do(t, s, "GET", "/api/v1/clusters/"+id+"/metrics", "", &m)
	if len(m.Nodes) != 6 || m.ClusterLoad != 0 || m.Polls != 1 {
		t.Fatalf("metrics = %+v", m)
	}

	// Advance 15 minutes of virtual time: the small job (10m) finishes and
	// the big one takes its place.
	var adv struct {
		VirtualNow string `json:"virtual_now"`
	}
	rec = do(t, s, "POST", "/api/v1/clusters/"+id+"/advance", `{"duration":"15m"}`, &adv)
	if rec.Code != http.StatusOK || adv.VirtualNow == "" {
		t.Fatalf("advance: %d %+v", rec.Code, adv)
	}
	// The advance ran a poll a minute; the last, at its end, sees the big
	// job's load.
	do(t, s, "GET", "/api/v1/clusters/"+id+"/metrics", "", &m)
	if len(m.Nodes) != 6 || m.ClusterLoad <= 0 || m.Polls != 16 || m.At != adv.VirtualNow {
		t.Fatalf("metrics after advance = %+v, want 16 polls, the last at %s", m, adv.VirtualNow)
	}
	var one jobInfo
	do(t, s, "GET", fmt.Sprintf("/api/v1/clusters/%s/jobs/%d", id, small.ID), "", &one)
	if one.State != "completed" || one.Ended == "" {
		t.Fatalf("small job after advance = %+v", one)
	}

	// Cancel the now-running big job; repeats and unknowns are 404.
	var cancelled jobInfo
	rec = do(t, s, "DELETE", fmt.Sprintf("/api/v1/clusters/%s/jobs/%d", id, big.ID), "", &cancelled)
	if rec.Code != http.StatusOK || cancelled.State != "cancelled" {
		t.Fatalf("cancel: %d %+v", rec.Code, cancelled)
	}
	if rec := do(t, s, "DELETE", fmt.Sprintf("/api/v1/clusters/%s/jobs/%d", id, big.ID), "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("double cancel = %d, want 404", rec.Code)
	}
	if rec := do(t, s, "GET", "/api/v1/clusters/"+id+"/jobs/99", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/api/v1/clusters/"+id+"/jobs/abc", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("non-numeric job id = %d, want 400", rec.Code)
	}

	// Validate: model plus measured smoke solve.
	var v validateResponse
	rec = do(t, s, "POST", "/api/v1/clusters/"+id+"/validate", `{"smoke_n":96}`, &v)
	if rec.Code != http.StatusOK {
		t.Fatalf("validate: %d %s", rec.Code, rec.Body.String())
	}
	if v.N <= 0 || v.RmaxGF <= 0 || !v.SmokeRun || !v.SmokePass || v.SmokeN != 96 {
		t.Fatalf("validate = %+v", v)
	}
	for _, body := range []string{`{"smoke_n":9999}`, `{"mem_fraction":1.5}`, `{"mem_fraction":-0.1}`} {
		if rec := do(t, s, "POST", "/api/v1/clusters/"+id+"/validate", body, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("validate %s = %d, want 400", body, rec.Code)
		}
	}
	var half validateResponse
	if rec := do(t, s, "POST", "/api/v1/clusters/"+id+"/validate", `{"mem_fraction":0.5,"smoke_n":0}`, &half); rec.Code != http.StatusOK || half.N <= 0 || half.N >= v.N {
		t.Errorf("validate at half the memory: %d, n = %d, want 0 < n < %d", rec.Code, half.N, v.N)
	}

	// Updates: a report per node; bad policies are rejected.
	var u updatesInfo
	rec = do(t, s, "GET", "/api/v1/clusters/"+id+"/updates", "", &u)
	if rec.Code != http.StatusOK || u.Policy != "notify" || len(u.Nodes) != 6 {
		t.Fatalf("updates: %d %+v", rec.Code, u)
	}
	if rec := do(t, s, "GET", "/api/v1/clusters/"+id+"/updates?policy=yolo", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad policy = %d, want 400", rec.Code)
	}

	// Job counts surface on the cluster summary.
	do(t, s, "GET", "/api/v1/clusters/"+id, "", &info)
	if info.JobsDone != 2 || info.JobsRunning != 0 || info.JobsQueued != 0 {
		t.Fatalf("job counts = %+v", info)
	}

	// Deleting the deployment removes the cluster view with it.
	if rec := do(t, s, "DELETE", "/api/v1/deployments/"+id, "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete deployment: %d", rec.Code)
	}
	if rec := do(t, s, "GET", "/api/v1/clusters/"+id, "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("cluster after delete = %d, want 404", rec.Code)
	}
}

// TestClusterAdvanceValidation rejects malformed and unbounded advances.
func TestClusterAdvanceValidation(t *testing.T) {
	s := newTestServer(t)
	id := deployReady(t, s, `{"cluster":"littlefe","parallelism":4}`)
	for _, body := range []string{`{}`, `{"duration":"0s"}`, `{"duration":"-1h"}`, `{"duration":"bogus"}`, `{"duration":"2160h1m"}`} {
		if rec := do(t, s, "POST", "/api/v1/clusters/"+id+"/advance", body, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("advance %s = %d, want 400", body, rec.Code)
		}
	}
}

// TestOpRoutesRefusals pins what the day-2 op routes answer when they
// refuse: the status and the exact error body, for request-shape errors,
// SDK refusals, and a cluster that is not ready (in flight: 409; settled
// failed: 422).
func TestOpRoutesRefusals(t *testing.T) {
	ready := newTestServer(t)
	deployReady(t, ready, `{"cluster":"littlefe","parallelism":4}`)
	gate, installing := make(chan struct{}), make(chan struct{}, 1)
	defer close(gate)
	building := New(Config{DeployOptions: []xcbc.Option{xcbc.WithInstallHook(func(string, int) error {
		select {
		case installing <- struct{}{}:
		default:
		}
		<-gate
		return nil
	})}})
	do(t, building, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, nil)
	<-installing
	failed := New(Config{DeployOptions: []xcbc.Option{xcbc.WithInstallHook(func(string, int) error {
		return fmt.Errorf("injected PXE fault")
	})}})
	do(t, failed, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, nil)
	if final, _ := pollDeployment(t, failed, "d1"); final.State != "failed" {
		t.Fatalf("deployment settled %q, want failed", final.State)
	}

	const d1 = "/api/v1/clusters/d1"
	type refusal struct {
		method, path, body string
		status             int
		want               string
	}
	cases := []refusal{
		{"POST", d1 + "/jobs", `{"cores":`, 400, `{"error":"bad request body: unexpected EOF"}`},
		{"POST", d1 + "/advance", `{"duration":"1h"} {}`, 400, `{"error":"bad request body: data after the JSON value"}`},
		{"POST", d1 + "/jobs", `{"cores":1,"walltime":"-1h"}`, 400, `{"error":"walltime must be a non-negative Go duration (e.g. \"30m\"): \"-1h\""}`},
		{"POST", d1 + "/jobs", `{"cores":1,"runtime":"soon"}`, 400, `{"error":"runtime must be a non-negative Go duration (e.g. \"30m\"): \"soon\""}`},
		{"POST", d1 + "/jobs", `{"cores":4096}`, 400, `{"error":"sched: bad job request: job requests 4096 cores, cluster has 10"}`},
		{"DELETE", d1 + "/jobs/abc", "", 400, `{"error":"job id must be a positive integer"}`},
		{"DELETE", d1 + "/jobs/99999999999999999999", "", 400, `{"error":"job id must be a positive integer"}`},
		{"DELETE", d1 + "/jobs/0", "", 400, `{"error":"job id must be a positive integer"}`},
		{"DELETE", d1 + "/jobs/42", "", 404, `{"error":"sched: unknown job: no active job 42"}`},
		{"GET", d1 + "/updates?policy=yolo", "", 400, `{"error":"unknown policy \"yolo\" (use notify, auto-apply, or security-only)"}`},
		{"POST", d1 + "/advance", `{"duration":"0s"}`, 400, `{"error":"duration must be a positive Go duration (e.g. \"30m\"): \"0s\""}`},
		{"POST", d1 + "/advance", `{"duration":"2161h"}`, 400, `{"error":"duration exceeds the 2160h0m0s per-request cap"}`},
	}
	for _, tc := range cases {
		rec := do(t, ready, tc.method, tc.path, tc.body, nil)
		got := strings.TrimSuffix(rec.Body.String(), "\n")
		if rec.Code != tc.status || got != tc.want {
			t.Errorf("%s %s %s = %d %s\nwant %d %s", tc.method, tc.path, tc.body, rec.Code, got, tc.status, tc.want)
		}
		// An escaped newline is two messages joined: each refusal has one.
		if strings.Contains(got, `\n`) {
			t.Errorf("%s %s %s: error body %s holds more than one message", tc.method, tc.path, tc.body, got)
		}
	}
	ops := []struct{ method, path, body string }{
		{"POST", d1 + "/jobs", `{"cores":1}`},
		{"DELETE", d1 + "/jobs/1", ""},
		{"GET", d1 + "/metrics", ""},
		{"GET", d1 + "/alerts", ""},
		{"GET", d1 + "/updates", ""},
		{"POST", d1 + "/advance", `{"duration":"1m"}`},
	}
	for _, nr := range []struct {
		s      *Server
		status int
		want   string
	}{
		{building, 409, `{"error":"cluster d1 is not operable: deployment state is \"building\"","hint":"day-2 operations need state \"ready\"; poll GET /api/v1/deployments/d1 or stream its /events until the build settles","state":"building"}`},
		{failed, 422, `{"build_error":"core: XCBC install failed: provision: all 5 compute nodes quarantined; build unusable","error":"cluster d1 is not operable: deployment state is \"failed\"","hint":"the build settled failed and will never be operable; inspect GET /api/v1/deployments/d1, then DELETE it and create a new deployment","state":"failed"}`},
	} {
		for _, op := range ops {
			rec := do(t, nr.s, op.method, op.path, op.body, nil)
			if got := strings.TrimSuffix(rec.Body.String(), "\n"); rec.Code != nr.status || got != nr.want {
				t.Errorf("%s %s = %d %s\nwant %d %s", op.method, op.path, rec.Code, got, nr.status, nr.want)
			}
		}
	}
}

// TestClusterJobsConcurrentREST hammers one durable ready cluster's day-2
// routes from many goroutines — the production shape; run with -race. The
// reads race the writers for as long as the writers run. Every submit names
// its job, and a restart must serve the cluster and its jobs byte for byte:
// ops replay in the order they ran, so each job ID names the same job.
func TestClusterJobsConcurrentREST(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	defer func() { s.Close() }()
	id := deployReady(t, s, `{"cluster":"littlefe","parallelism":4}`)
	base := "/api/v1/clusters/" + id
	var writers, readers sync.WaitGroup
	write := func(path, body string, want int) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != want {
			t.Errorf("POST %s %s = %d %s, want %d", path, body, rec.Code, rec.Body.String(), want)
		}
	}
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 20; i++ {
				write(base+"/jobs", fmt.Sprintf(`{"name":"spin-%d-%d","user":"u","cores":1,"walltime":"30m","runtime":"5m"}`, w, i), http.StatusCreated)
			}
		}()
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 20; i++ {
			write(base+"/advance", `{"duration":"10m"}`, http.StatusOK)
		}
	}()
	stop := make(chan struct{})
	for _, path := range []string{base, base + "/jobs", base + "/metrics", base + "/alerts"} {
		hammer(s, &readers, stop, "GET", path, "")
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	// All 60 submissions must be accounted for.
	var list struct {
		Count int `json:"count"`
	}
	do(t, s, "GET", base+"/jobs", "", &list)
	if list.Count != 60 {
		t.Fatalf("jobs accounted = %d, want 60", list.Count)
	}
	before := bodies(t, s, base, base+"/jobs")
	s.Close()
	s, _ = openDurable(t, dir)
	for i, after := range bodies(t, s, base, base+"/jobs") {
		if after != before[i] {
			t.Errorf("across a restart, body %d changed:\n before: %s\n after:  %s", i, before[i], after)
		}
	}
}

// TestXNITClusterUpdates exercises the day-2 surface of an adopted
// (vendor + XNIT) cluster: the update check runs over the attached XSEDE
// repository.
func TestXNITClusterUpdates(t *testing.T) {
	s := newTestServer(t)
	id := deployReady(t, s, `{"cluster":"limulus","path":"xnit","scheduler":"torque","profiles":["compilers"]}`)
	var u updatesInfo
	rec := do(t, s, "GET", "/api/v1/clusters/"+id+"/updates", "", &u)
	if rec.Code != http.StatusOK {
		t.Fatalf("updates: %d %s", rec.Code, rec.Body.String())
	}
	if len(u.Nodes) == 0 {
		t.Fatal("no per-node update reports")
	}
	for node, nu := range u.Nodes {
		if nu.Summary == "" {
			t.Errorf("node %s has an empty update summary", node)
		}
	}
}

// TestReadsAnswerWhileARecordIsParked: every GET route is a read, the
// default update check, which only notifies, among them. With a submit to
// the cluster parked at the store's stop point — logged, not applied, st.mu
// and the deployment's op lock held — each GET of the route table, its ids
// naming real resources, answers 200 and journals nothing. An update check
// with an applying policy is an op, and is left out.
func TestReadsAnswerWhileARecordIsParked(t *testing.T) {
	xnit, err := xcbc.NewXNITRepository()
	if err != nil {
		t.Fatal(err)
	}
	s, _ := openDurable(t, t.TempDir(), func(c *Config) { c.Repos = []*repo.Repository{xnit} })
	defer s.Close()
	id := deployReady(t, s, `{"cluster":"littlefe","scheduler":"torque"}`)
	for _, w := range []struct{ path, body, settled string }{
		{"/api/v1/clusters/" + id + "/jobs", `{"cores":1}`, ""},
		{"/api/v1/fleets", `{"name":"tiny","members":2,"nodes":2,"workers":2}`, "/api/v1/fleets/f1"},
		{"/api/v1/fleets/f1/scenarios", `{"scenario": ` + smallScenario + `}`, "/api/v1/fleets/f1/scenarios/s1"},
		{"/api/v1/campaigns", `{"seeds":1,"workers":1}`, "/api/v1/campaigns/c1"},
	} {
		if rec := do(t, s, "POST", w.path, w.body, nil); rec.Code >= 300 {
			t.Fatalf("POST %s: %d %s", w.path, rec.Code, rec.Body.String())
		}
		if w.settled != "" {
			awaitSettled[struct{ State string }](t, s, "", w.settled)
		}
	}
	ids := map[string]string{"repos": xnit.ID, "deployments": id, "clusters": id, "fleets": "f1", "campaigns": "c1"}
	var paths []string
	for _, rt := range s.routes {
		if rt.Method == "GET" {
			seg := strings.Split(rt.Path, "/") // "", "api", "v1", kind, "{id}", …
			if len(seg) > 4 {
				seg[4] = ids[seg[3]]
			}
			paths = append(paths, strings.NewReplacer("{sid}", "s1", "{jid}", "1").Replace(strings.Join(seg, "/")))
		}
	}
	parked, release := parkAt(s.openTenant.store, recClusterOp)
	defer release()
	submitted := make(chan int, 1)
	go func() { submitted <- do(t, s, "POST", "/api/v1/clusters/"+id+"/jobs", `{"cores":1}`, nil).Code }()
	select {
	case <-parked:
	case <-time.After(time.Minute):
		t.Fatal("the submit logged no cluster.op")
	}
	seq := s.openTenant.store.log.Stats().NextSeq
	for _, path := range paths {
		read := make(chan *httptest.ResponseRecorder, 1)
		go func() { read <- do(t, s, "GET", path, "", nil) }()
		select {
		case rec := <-read:
			if rec.Code != http.StatusOK {
				t.Errorf("GET %s with a record parked = %d %s, want 200", path, rec.Code, rec.Body.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("GET %s waited on the parked record", path)
		}
	}
	if got := s.openTenant.store.log.Stats().NextSeq; got != seq {
		t.Errorf("%d GETs journaled %d records, want none", len(paths), got-seq)
	}
	release()
	if code := <-submitted; code != http.StatusCreated {
		t.Fatalf("the parked submit answered %d, want 201", code)
	}
}
