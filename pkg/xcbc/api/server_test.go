package api

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xcbc/internal/repo"
	"xcbc/internal/rpm"
	"xcbc/pkg/xcbc"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	xnit, err := xcbc.NewXNITRepository()
	if err != nil {
		t.Fatal(err)
	}
	clock := func() time.Time { return time.Date(2015, 9, 8, 12, 0, 0, 0, time.UTC) }
	return New(Config{Repos: []*repo.Repository{xnit}, Clock: clock})
}

// do runs one request against the handler and decodes a JSON body into out
// (when out is non-nil).
func do(t *testing.T, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func TestRouteStatusCodes(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/api/v1/healthz", "", 200},
		{"GET", "/api/v1/repos", "", 200},
		{"GET", "/api/v1/repos/xsede", "", 200},
		{"GET", "/api/v1/repos/nosuch", "", 404},
		{"GET", "/api/v1/repos/xsede/packages", "", 200},
		{"GET", "/api/v1/repos/xsede/packages?name=gcc", "", 200},
		{"GET", "/api/v1/repos/nosuch/packages", "", 404},
		{"POST", "/api/v1/depsolve", `{"install":["gromacs"]}`, 200},
		{"POST", "/api/v1/depsolve", `{"install":[]}`, 400},
		{"POST", "/api/v1/depsolve", `{"install":["libreoffice"]}`, 422},
		{"POST", "/api/v1/depsolve", `not json`, 400},
		{"GET", "/api/v1/depsolve", "", 405},
		{"DELETE", "/api/v1/repos", "", 405},
		{"PUT", "/api/v1/deployments", "", 405},
		{"GET", "/api/v1/deployments", "", 200},
		{"GET", "/api/v1/deployments/nosuch", "", 404},
		{"GET", "/api/v1/deployments/nosuch/events", "", 404},
		{"POST", "/api/v1/deployments/nosuch/events", "", 405},
		{"DELETE", "/api/v1/deployments/nosuch", "", 404},
		// Requests that cannot possibly build fail synchronously, before
		// any async job starts.
		{"POST", "/api/v1/deployments", `{"cluster":"atlantis"}`, 400},
		{"POST", "/api/v1/deployments", `{"cluster":"littlefe-original"}`, 422},
		{"POST", "/api/v1/deployments", `{"path":"teleport"}`, 400},
		{"POST", "/api/v1/deployments", `{"path":"xcbc","profiles":["bio"]}`, 400},
		{"POST", "/api/v1/deployments", `{"path":"xnit","rolls":["hpc"]}`, 400},
		{"POST", "/api/v1/deployments", `{"cluster":"limulus","path":"xnit","parallelism":4}`, 400},
		{"POST", "/api/v1/deployments", `{"cluster":"limulus","path":"xnit","retries":2}`, 400},
		{"POST", "/api/v1/deployments", `{"parallelism":-2}`, 400},
		{"POST", "/api/v1/deployments", `{"retries":-1}`, 400},
		{"GET", "/api/v2/repos", "", 404},
		{"GET", "/api/", "", 404},
		// Legacy Yum surface, preserved.
		{"GET", "/", "", 200},
		{"GET", "/xsede/repodata/repomd.json", "", 200},
		{"GET", "/nosuchrepo/repodata/repomd.json", "", 404},
	}
	for _, tc := range cases {
		rec := do(t, s, tc.method, tc.path, tc.body, nil)
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d (body %s)",
				tc.method, tc.path, rec.Code, tc.want, rec.Body.String())
		}
	}
}

func TestReposJSONShape(t *testing.T) {
	s := newTestServer(t)
	var list struct {
		Repos []repoInfo `json:"repos"`
	}
	do(t, s, "GET", "/api/v1/repos", "", &list)
	if len(list.Repos) != 1 {
		t.Fatalf("repos = %d, want 1", len(list.Repos))
	}
	r := list.Repos[0]
	if r.ID != "xsede" || !r.Enabled || r.Packages == 0 || r.Priority != xcbc.XNITPriority {
		t.Errorf("repo = %+v", r)
	}

	var one repoInfo
	do(t, s, "GET", "/api/v1/repos/xsede", "", &one)
	if one != r {
		t.Errorf("single = %+v, list entry = %+v", one, r)
	}
}

func TestRepoPackages(t *testing.T) {
	s := newTestServer(t)
	var all struct {
		Repo     string        `json:"repo"`
		Count    int           `json:"count"`
		Packages []packageInfo `json:"packages"`
	}
	do(t, s, "GET", "/api/v1/repos/xsede/packages", "", &all)
	if all.Repo != "xsede" || all.Count == 0 || all.Count != len(all.Packages) {
		t.Fatalf("packages = count %d, len %d", all.Count, len(all.Packages))
	}
	for _, p := range all.Packages[:5] {
		if p.NEVRA == "" || p.Name == "" || p.Arch == "" {
			t.Errorf("incomplete package record %+v", p)
		}
	}

	var filtered struct {
		Count    int           `json:"count"`
		Packages []packageInfo `json:"packages"`
	}
	do(t, s, "GET", "/api/v1/repos/xsede/packages?name=gcc", "", &filtered)
	if filtered.Count == 0 {
		t.Fatal("no gcc builds")
	}
	for _, p := range filtered.Packages {
		if p.Name != "gcc" {
			t.Errorf("filter leaked %q", p.Name)
		}
	}
}

func TestDepsolve(t *testing.T) {
	s := newTestServer(t)
	var resp depsolveResponse
	do(t, s, "POST", "/api/v1/depsolve", `{"install":["gromacs"]}`, &resp)
	if resp.Count == 0 || resp.Count != len(resp.Installs) {
		t.Fatalf("depsolve = %+v", resp)
	}
	found := false
	for _, p := range resp.Installs {
		if p.Name == "gromacs" {
			found = true
		}
	}
	if !found {
		t.Errorf("gromacs not in plan %+v", resp.Installs)
	}

	// A node that already has the package needs nothing.
	var noop depsolveResponse
	do(t, s, "POST", "/api/v1/depsolve", `{"installed":["gromacs"],"install":["gromacs"]}`, &noop)
	if noop.Count != 0 {
		t.Errorf("already-installed depsolve = %+v, want empty plan", noop)
	}
}

// pollDeployment polls GET until the deployment reaches a terminal state,
// following the journal cursor as a real client would, and returns the
// final info plus every event collected along the way.
func pollDeployment(t *testing.T, s *Server, id string) (deploymentInfo, []eventInfo) {
	t.Helper()
	cursor := 0
	var events []eventInfo
	deadline := time.Now().Add(10 * time.Second)
	for {
		var info deploymentInfo
		rec := do(t, s, "GET", fmt.Sprintf("/api/v1/deployments/%s?cursor=%d", id, cursor), "", &info)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll: %d %s", rec.Code, rec.Body.String())
		}
		events = append(events, info.Events...)
		if info.NextCursor < cursor {
			t.Fatalf("cursor went backwards: %d -> %d", cursor, info.NextCursor)
		}
		cursor = info.NextCursor
		switch info.State {
		case "ready", "failed", "cancelled":
			return info, events
		}
		if time.Now().After(deadline) {
			t.Fatalf("deployment %s stuck in %q", id, info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDeploymentLifecycle(t *testing.T) {
	// Gate the first compute install so the build provably cannot reach a
	// terminal state before the 202-body assertions run (the build is only
	// milliseconds of wall clock otherwise).
	gate := make(chan struct{})
	var once sync.Once
	xnit, err := xcbc.NewXNITRepository()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Repos: []*repo.Repository{xnit},
		DeployOptions: []xcbc.Option{xcbc.WithInstallHook(func(node string, attempt int) error {
			<-gate
			return nil
		})},
	})
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	var created deploymentInfo
	rec := do(t, s, "POST", "/api/v1/deployments",
		`{"cluster":"littlefe","scheduler":"torque","rolls":["ganglia","hpc"],"parallelism":2}`, &created)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	if created.ID == "" || created.Cluster != "LittleFe" || created.Nodes != 6 {
		t.Fatalf("created = %+v", created)
	}
	if created.State != "building" && created.State != "pending" {
		t.Fatalf("created state = %q, want building or pending", created.State)
	}
	if created.PackagesInstalled != 0 || created.Scheduler != "" {
		t.Errorf("202 body leaked build results: %+v", created)
	}

	release()
	final, events := pollDeployment(t, s, created.ID)
	if final.State != "ready" || final.Scheduler != "torque" ||
		final.PackagesInstalled == 0 || final.CompatTotal == 0 || final.InstallDuration == "" {
		t.Fatalf("final = %+v", final)
	}
	stages := map[string]int{}
	for _, ev := range events {
		stages[ev.Stage]++
	}
	if stages["frontend"] != 1 || stages["compute"] != 5 || stages["subsystems"] != 1 {
		t.Errorf("event stages = %v", stages)
	}

	// XNIT path on the diskless Limulus, also async.
	var adopted deploymentInfo
	rec = do(t, s, "POST", "/api/v1/deployments",
		`{"cluster":"limulus","path":"xnit","scheduler":"torque","profiles":["compilers"]}`, &adopted)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("adopt: %d %s", rec.Code, rec.Body.String())
	}
	adoptedFinal, _ := pollDeployment(t, s, adopted.ID)
	if adoptedFinal.Path != "xnit" || adoptedFinal.State != "ready" || adoptedFinal.Scheduler != "torque" {
		t.Fatalf("adopted = %+v", adoptedFinal)
	}

	var list struct {
		Deployments []deploymentInfo `json:"deployments"`
	}
	do(t, s, "GET", "/api/v1/deployments", "", &list)
	if len(list.Deployments) != 2 {
		t.Fatalf("list = %d deployments, want 2", len(list.Deployments))
	}

	// DELETE on a terminal deployment removes it.
	if rec := do(t, s, "DELETE", "/api/v1/deployments/"+created.ID, "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec := do(t, s, "GET", "/api/v1/deployments/"+created.ID, "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("get after delete: %d, want 404", rec.Code)
	}
}

// TestDeploymentCancel exercises the in-flight DELETE contract: the build
// is gated via the install hook, cancelled while building, and observed
// settling into "cancelled"; a second DELETE then removes the record.
func TestDeploymentCancel(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	xnit, err := xcbc.NewXNITRepository()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Repos: []*repo.Repository{xnit},
		DeployOptions: []xcbc.Option{xcbc.WithInstallHook(func(node string, attempt int) error {
			if node == "compute-0-3" {
				once.Do(func() { close(entered) })
				<-gate
			}
			return nil
		})},
	})
	var created deploymentInfo
	rec := do(t, s, "POST", "/api/v1/deployments", `{"cluster":"littlefe","parallelism":2}`, &created)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	<-entered // the build is now provably in flight, blocked in wave 2

	var info deploymentInfo
	do(t, s, "GET", "/api/v1/deployments/"+created.ID, "", &info)
	if info.State != "building" {
		t.Fatalf("state mid-build = %q", info.State)
	}

	rec = do(t, s, "DELETE", "/api/v1/deployments/"+created.ID, "", &info)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("cancel: %d %s", rec.Code, rec.Body.String())
	}
	close(gate) // let the gated wave finish; the build then observes cancellation
	final, _ := pollDeployment(t, s, created.ID)
	if final.State != "cancelled" || final.Error == "" {
		t.Fatalf("final = %+v", final)
	}
	if rec := do(t, s, "DELETE", "/api/v1/deployments/"+created.ID, "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete after cancel: %d", rec.Code)
	}
}

// TestDeploymentEventsSSE reads the /events stream over a real HTTP server:
// journal frames arrive as `data:` lines and the stream closes with a
// terminal `event: state` frame.
func TestDeploymentEventsSSE(t *testing.T) {
	s := newTestServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/api/v1/deployments", "application/json",
		strings.NewReader(`{"cluster":"littlefe","parallelism":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var created deploymentInfo
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	stream, err := http.Get(srv.URL + "/api/v1/deployments/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var dataFrames int
	var terminal string
	scanner := bufio.NewScanner(stream.Body)
	expectState := false
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "event: state":
			expectState = true
		case strings.HasPrefix(line, "data: ") && expectState:
			var st struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				t.Fatal(err)
			}
			terminal = st.State
		case strings.HasPrefix(line, "data: "):
			var ev eventInfo
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad event frame %q: %v", line, err)
			}
			dataFrames++
		}
	}
	if terminal != "ready" {
		t.Fatalf("terminal state frame = %q, want ready", terminal)
	}
	if dataFrames < 7 { // distribution, frontend, 5 computes at least
		t.Errorf("streamed %d events", dataFrames)
	}
}

// TestDeploymentStatusRace hammers status/event reads while a build is
// emitting journal entries — the regression test, under -race, for the
// unguarded Events slice the server used to append to from the build
// goroutine.
func TestDeploymentStatusRace(t *testing.T) {
	s := newTestServer(t)
	var created deploymentInfo
	rec := do(t, s, "POST", "/api/v1/deployments",
		`{"cluster":"littlefe","node_count":24,"parallelism":2}`, &created)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("GET", "/api/v1/deployments/"+created.ID, nil)
				s.Handler().ServeHTTP(httptest.NewRecorder(), req)
			}
		}()
	}
	final, _ := pollDeployment(t, s, created.ID)
	close(stop)
	wg.Wait()
	if final.State != "ready" || final.Nodes != 25 {
		t.Fatalf("final = %+v", final)
	}
}

func TestRepoConfigsKeepPriorities(t *testing.T) {
	vendor := repo.New("sl-base", "Scientific Linux base", "")
	if err := vendor.Publish(rpm.NewPackage("python", "2.6.6-52.el6.sl", rpm.ArchX86_64).Build()); err != nil {
		t.Fatal(err)
	}
	xnit, err := xcbc.NewXNITRepository()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{RepoConfigs: []repo.Config{
		{Repo: vendor, Priority: 10, Enabled: true},
		{Repo: xnit, Priority: xcbc.XNITPriority, Enabled: true},
	}})
	var one repoInfo
	do(t, s, "GET", "/api/v1/repos/sl-base", "", &one)
	if one.Priority != 10 {
		t.Errorf("vendor priority = %d, want 10", one.Priority)
	}
	// Priority shadowing must hold in depsolve: the vendor python wins.
	var resp depsolveResponse
	do(t, s, "POST", "/api/v1/depsolve", `{"install":["python"]}`, &resp)
	if len(resp.Installs) != 1 || resp.Installs[0].Version != "2.6.6-52.el6.sl" {
		t.Errorf("depsolve chose %+v, want the vendor python build", resp.Installs)
	}
}

func TestYumRoutesFollowLiveSet(t *testing.T) {
	s := newTestServer(t)
	mirror := repo.New("campus", "Campus mirror", "")
	if err := mirror.Publish(rpm.NewPackage("gcc", "4.4.7-4.el6", rpm.ArchX86_64).Build()); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "GET", "/campus/repodata/repomd.json", "", nil); rec.Code != 404 {
		t.Fatalf("metadata before add: %d, want 404", rec.Code)
	}
	s.set.Add(repo.Config{Repo: mirror, Priority: 60, Enabled: true})
	if rec := do(t, s, "GET", "/campus/repodata/repomd.json", "", nil); rec.Code != 200 {
		t.Fatalf("metadata after add: %d, want 200", rec.Code)
	}
}

func TestYumRoutesPreserved(t *testing.T) {
	s := newTestServer(t)
	readme := do(t, s, "GET", "/", "", nil)
	if !strings.Contains(readme.Body.String(), "[xsede]") {
		t.Errorf("readme missing yum stanza:\n%s", readme.Body.String())
	}
	var md struct {
		Packages []json.RawMessage `json:"packages"`
	}
	do(t, s, "GET", "/xsede/repodata/repomd.json", "", &md)
	if len(md.Packages) == 0 {
		t.Error("repomd.json has no package records")
	}
}

// TestConcurrentSetMutation exercises the concurrency-safe repo.Set: API
// reads and depsolves race against live repository configuration changes
// and publishes. Run with -race.
func TestConcurrentSetMutation(t *testing.T) {
	s := newTestServer(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: add extra repositories, toggle them and the main one, publish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("extra-%d", i%4)
			if i < 4 {
				extra := repo.New(id, "extra", "")
				_ = extra.Publish(rpm.NewPackage("filler", fmt.Sprintf("1.%d-1", i), rpm.ArchX86_64).Build())
				s.set.Add(repo.Config{Repo: extra, Priority: 60 + i%10, Enabled: i%2 == 0})
			}
			s.set.Enable(id, i%2 == 0)
			s.set.Enable("xsede", i%3 != 0)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		xsede := s.set.Lookup("xsede")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = xsede.Publish(rpm.NewPackage("churn", fmt.Sprintf("2.%d-1", i), rpm.ArchX86_64).Build())
		}
	}()

	// Readers: list, inspect, depsolve.
	paths := []string{
		"/api/v1/repos",
		"/api/v1/repos/xsede",
		"/api/v1/repos/xsede/packages?name=gcc",
	}
	for _, p := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("GET", path, nil)
				s.Handler().ServeHTTP(httptest.NewRecorder(), req)
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req := httptest.NewRequest("POST", "/api/v1/depsolve",
				strings.NewReader(`{"install":["gcc"]}`))
			s.Handler().ServeHTTP(httptest.NewRecorder(), req)
		}
	}()

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestGracefulShutdown(t *testing.T) {
	s := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestGracefulShutdownWithSSEWatcher proves a client parked on the /events
// stream of a non-terminal build cannot pin graceful shutdown past its
// drain deadline: the stream is woken and closed when shutdown begins.
func TestGracefulShutdownWithSSEWatcher(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	xnit, err := xcbc.NewXNITRepository()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Repos: []*repo.Repository{xnit},
		DeployOptions: []xcbc.Option{xcbc.WithInstallHook(func(string, int) error {
			<-gate // hold the build in flight for the whole test
			return nil
		})},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String() // bound: requests queue until Serve accepts
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	resp, err := http.Post("http://"+addr+"/api/v1/deployments", "application/json",
		strings.NewReader(`{"cluster":"littlefe"}`))
	if err != nil {
		t.Fatal(err)
	}
	var created deploymentInfo
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stream, err := http.Get("http://" + addr + "/api/v1/deployments/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	go io.Copy(io.Discard, stream.Body) // park a watcher on the live stream

	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown with SSE watcher returned %v, want nil", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("server did not shut down while an SSE watcher was attached")
	}
}

// TestOversizedBodyRejected sends a body past the 1 MiB cap to every POST
// route: each answers the typed 413 rather than buffering it, the server
// keeps serving afterwards, and a POST /validate without a body is still
// accepted.
func TestOversizedBodyRejected(t *testing.T) {
	s := newTestServer(t)
	id := deployReady(t, s, `{"cluster":"littlefe","scheduler":"torque"}`)
	if rec := do(t, s, "POST", "/api/v1/fleets", `{"name":"tiny","members":2,"nodes":2,"provision":false}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("create fleet: %d %s", rec.Code, rec.Body.String())
	}
	huge := `{"pad":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	var posts []string
	for _, rt := range s.routes {
		if rt.Method == "POST" {
			posts = append(posts, strings.NewReplacer("{id}/scenarios", "f1/scenarios", "{id}", id).Replace(rt.Path))
		}
	}
	if len(posts) != 8 {
		t.Fatalf("found %d POST routes, want 8: %v", len(posts), posts)
	}
	for _, path := range posts {
		var body bodyTooLargeError
		rec := do(t, s, "POST", path, huge, &body)
		if rec.Code != http.StatusRequestEntityTooLarge || body.Code != "body_too_large" || body.Limit != maxBodyBytes || body.Err == "" {
			t.Errorf("POST %s with %d bytes = %d %+v, want typed 413", path, len(huge), rec.Code, body)
		}
		if rec := do(t, s, "GET", "/api/v1/healthz", "", nil); rec.Code != http.StatusOK {
			t.Fatalf("server stopped serving after oversized POST %s: %d", path, rec.Code)
		}
	}
	if rec := do(t, s, "POST", "/api/v1/clusters/"+id+"/validate", "", nil); rec.Code != http.StatusOK {
		t.Errorf("validate with no body = %d %s, want 200", rec.Code, rec.Body.String())
	}
}
