package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xcbc/pkg/xcbc"
)

// depRow and fleetRow read one row of the open tenant's index, as its
// routes do.
func depRow(s *Server, id string) (*depMirror, bool) {
	st := s.openTenant.store
	dep := lookup(st, st.m.Deployments, id)
	return dep, dep != nil
}

func fleetRow(s *Server, id string) (*fleetMirror, bool) {
	st := s.openTenant.store
	f := lookup(st, st.m.Fleets, id)
	return f, f != nil
}

// runRow reads one of a fleet's runs as its route does; nil if either the
// fleet or the run is unknown.
func runRow(s *Server, fleetID, runID string) *runMirror {
	f, _ := fleetRow(s, fleetID)
	st := s.openTenant.store
	st.idx.RLock()
	defer st.idx.RUnlock()
	return f.run(runID)
}

// indexLen measures st's index under its read lock.
func indexLen(st *store, n func(m *mirror) int) int {
	st.idx.RLock()
	defer st.idx.RUnlock()
	return n(st.m)
}

// TestQuotaUnderConcurrentCreate races many creates at a capped tenant:
// exactly max are indexed, every loser gets the typed quota body, and the
// winners hold distinct IDs.
func TestQuotaUnderConcurrentCreate(t *testing.T) {
	const creators, quota = 64, 10
	s, _ := newMTServer(t, TenantConfig{Name: "capped", Key: "capped-key", Quotas: Quotas{MaxDeployments: quota}})
	st := s.tenants[0].store
	held := func() int { return indexLen(st, func(m *mirror) int { return len(m.Deployments) }) }
	var wg sync.WaitGroup
	var mu sync.Mutex
	won := map[int]bool{}
	for range creators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &depCreatedRec{Path: "xcbc"}
			var qe *quotaError
			if err := st.emit(recDeploymentCreated, rec); errors.As(err, &qe) {
				if qe.Code != "quota_exceeded" || qe.Resource != "deployments" || qe.Limit != quota || qe.InUse != quota {
					t.Errorf("quota body = %+v", qe)
				}
				return
			} else if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			won[numSuffix(rec.ID)] = true
			mu.Unlock()
			if n := held(); n > quota {
				t.Errorf("the index holds %d deployments, quota %d", n, quota)
			}
		}()
	}
	wg.Wait()
	if len(won) != quota || held() != quota {
		t.Fatalf("%d distinct winners, %d deployments, want %d of each", len(won), held(), quota)
	}
}

// TestRestartContinuesIDs deletes the highest-numbered deployment, with a
// snapshot after every record so that no created record survives in the
// log, and requires the next create after a restart to get a fresh ID
// rather than reuse the deleted one's.
func TestRestartContinuesIDs(t *testing.T) {
	dir := t.TempDir()
	everyRecord := func(c *Config) { c.SnapshotEvery = 1 }
	s, _ := openDurable(t, dir, everyRecord)
	for _, want := range []string{"d1", "d2", "d3"} {
		if id := deployReady(t, s, `{"cluster":"littlefe"}`); id != want {
			t.Fatalf("created %s, want %s", id, want)
		}
	}
	if rec := do(t, s, "DELETE", "/api/v1/deployments/d3", "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE d3: %d %s", rec.Code, rec.Body.String())
	}
	s.Close()
	s, _ = openDurable(t, dir, everyRecord)
	defer s.Close()
	var created deploymentInfo
	do(t, s, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, &created)
	if created.ID != "d4" {
		t.Fatalf("next ID after restart = %q, want d4", created.ID)
	}
}

// TestIndexPage pins numeric-suffix ordering and the floor-cursor
// contract, including the stable tail on an empty page.
func TestIndexPage(t *testing.T) {
	st := newTestServer(t).openTenant.store
	index := map[string]*string{}
	for i := 1; i <= 12; i++ {
		if id := fmt.Sprintf("d%d", i); i != 3 {
			index[id] = &id
		}
	}
	for _, tc := range []struct {
		pg   page
		want string
		next int
	}{
		{page{0, 4}, "[d1 d2 d4 d5]", 5},
		{page{8, 100}, "[d9 d10 d11 d12]", 12},
		{page{2, 1}, "[d4]", 4},
		{page{12, 5}, "[]", 12},
		{page{40, 5}, "[]", 40},
	} {
		rows, next := pageOf(st, index, tc.pg)
		got := mapSlice(rows, func(id *string) string { return *id })
		if fmt.Sprint(got) != tc.want || next != tc.next {
			t.Errorf("pageOf(%+v) = %v next %d, want %s next %d", tc.pg, got, next, tc.want, tc.next)
		}
	}
}

// refuseRecords closes s's log under its store, so that the log refuses
// every later append (wal.ErrClosed) as a failed one does.
func refuseRecords(t *testing.T, s *Server) {
	t.Helper()
	if err := s.openTenant.store.log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedRecordIs503 has the log refuse the record of each write that
// publishes or removes a resource, or runs a day-2 op: the write answers
// 503 in the error envelope, reads see nothing published, removed or run,
// and neither does a restart.
func TestRefusedRecordIs503(t *testing.T) {
	refused := func(t *testing.T, s *Server, method, path, body string) {
		t.Helper()
		var e apiError
		if rec := do(t, s, method, path, body, &e); rec.Code != http.StatusServiceUnavailable || e.Error == "" {
			t.Errorf("%s %s with its record refused = %d %s, want 503 with an error", method, path, rec.Code, rec.Body.String())
		}
	}
	reads := func(t *testing.T, s *Server, path string, want int) {
		t.Helper()
		if rec := do(t, s, "GET", path, "", nil); rec.Code != want {
			t.Errorf("GET %s = %d, want %d", path, rec.Code, want)
		}
	}
	t.Run("create", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openDurable(t, dir)
		refuseRecords(t, s)
		refused(t, s, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`)
		reads(t, s, "/api/v1/deployments/d1", http.StatusNotFound)
		s.Close()
		s, _ = openDurable(t, dir)
		defer s.Close()
		reads(t, s, "/api/v1/deployments/d1", http.StatusNotFound)
	})
	t.Run("delete", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openDurable(t, dir)
		deployReady(t, s, `{"cluster":"littlefe"}`)
		refuseRecords(t, s)
		refused(t, s, "DELETE", "/api/v1/deployments/d1", "")
		reads(t, s, "/api/v1/deployments/d1", http.StatusOK)
		s.Close()
		s, _ = openDurable(t, dir)
		defer s.Close()
		reads(t, s, "/api/v1/deployments/d1", http.StatusOK)
	})
	t.Run("run and campaign", func(t *testing.T) {
		s, _ := openDurable(t, t.TempDir())
		defer s.Close()
		do(t, s, "POST", "/api/v1/fleets", `{"name":"tiny","members":2,"nodes":2,"workers":2,"provision":false}`, nil)
		refuseRecords(t, s)
		refused(t, s, "POST", "/api/v1/fleets/f1/scenarios", `{"scenario": `+smallScenario+`}`)
		refused(t, s, "POST", "/api/v1/campaigns", `{"seeds":1,"workers":1}`)
		refused(t, s, "POST", "/api/v1/fleets", `{"name":"tiny","members":2,"provision":false}`)
		reads(t, s, "/api/v1/fleets/f1/scenarios/s1", http.StatusNotFound)
		reads(t, s, "/api/v1/campaigns/c1", http.StatusNotFound)
		reads(t, s, "/api/v1/fleets/f2", http.StatusNotFound)
		reads(t, s, "/api/v1/fleets/f1", http.StatusOK)
	})
	t.Run("day-2 ops", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openDurable(t, dir)
		base := "/api/v1/clusters/" + deployReady(t, s, `{"cluster":"littlefe","scheduler":"torque"}`)
		if rec := do(t, s, "POST", base+"/jobs", `{"cores":1,"runtime":"2h"}`, nil); rec.Code != http.StatusCreated {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
		}
		before := bodies(t, s, base, base+"/jobs")
		refuseRecords(t, s)
		refused(t, s, "POST", base+"/jobs", `{"cores":1}`)
		refused(t, s, "DELETE", base+"/jobs/1", "")
		refused(t, s, "GET", base+"/updates?policy=auto-apply", "")
		refused(t, s, "POST", base+"/advance", `{"duration":"1h"}`)
		live := bodies(t, s, base, base+"/jobs")
		s.Close()
		s, _ = openDurable(t, dir)
		defer s.Close()
		for i, got := range append(live, bodies(t, s, base, base+"/jobs")...) {
			if want := before[i%len(before)]; got != want {
				t.Errorf("with the ops refused, body %d = %s\nwant %s", i, got, want)
			}
		}
	})
}

// TestOpOnADeletedDeploymentIsRefused: a day-2 op whose deployment was
// deleted after its route opened the cluster is refused as unknown, and
// its record is not logged.
func TestOpOnADeletedDeploymentIsRefused(t *testing.T) {
	s, _ := openDurable(t, t.TempDir())
	defer s.Close()
	id := deployReady(t, s, `{"cluster":"littlefe"}`)
	dep, _ := depRow(s, id)
	if rec := do(t, s, "DELETE", "/api/v1/deployments/"+id, "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	st := s.openTenant.store
	next := st.log.Stats().NextSeq
	err := st.emit(recClusterOp, &clusterOpRec{ID: id, Op: "advance", Duration: "1m", dep: dep})
	if !errors.Is(err, errNoDeployment) || st.log.Stats().NextSeq != next {
		t.Errorf("op on a deleted deployment = %v with %d records logged, want %v with none",
			err, st.log.Stats().NextSeq-next, errNoDeployment)
	}
}

// TestOneDeploymentsOpHoldsNoTenantWriteRecord holds d1's advance mid-run,
// in runOp, with a gate the test controls. The op holds its deployment's op
// lock and nothing of the tenant's, so meanwhile the tenant creates a
// deployment, deletes d2, submits to d3 and checks d1's updates, a read that
// journals nothing. Then d1 is deleted under the op: let go, it answers 404
// and logs nothing, as TestOpOnADeletedDeploymentIsRefused's emit does.
func TestOneDeploymentsOpHoldsNoTenantWriteRecord(t *testing.T) {
	s, _ := openDurable(t, t.TempDir())
	defer s.Close()
	for range 3 {
		deployReady(t, s, `{"cluster":"littlefe","scheduler":"torque"}`)
	}
	entered, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	run := runOp
	runOp = func(cl *xcbc.Cluster, op *clusterOpRec) (any, error) {
		if op.Op == "advance" {
			close(entered)
			<-gate
		}
		return run(cl, op)
	}
	defer func() { runOp = run }()
	advanced := make(chan int, 1)
	go func() { advanced <- do(t, s, "POST", "/api/v1/clusters/d1/advance", `{"duration":"24h"}`, nil).Code }()
	select {
	case <-entered:
	case <-time.After(time.Minute):
		t.Fatal("the advance never ran")
	}
	st := s.openTenant.store
	answers := func(method, path, body string, want int) {
		t.Helper()
		got := make(chan int, 1)
		go func() { got <- do(t, s, method, path, body, nil).Code }()
		select {
		case code := <-got:
			if code != want {
				t.Errorf("%s %s with d1's op held = %d, want %d", method, path, code, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s %s waited on d1's op", method, path)
		}
	}
	answers("POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, http.StatusAccepted)
	pollDeployment(t, s, "d4") // settled, so no record of its build lands below
	answers("DELETE", "/api/v1/deployments/d2", "", http.StatusNoContent)
	answers("POST", "/api/v1/clusters/d3/jobs", `{"cores":1}`, http.StatusCreated)
	seq := st.log.Stats().NextSeq
	answers("GET", "/api/v1/clusters/d1/updates", "", http.StatusOK)
	if got := st.log.Stats().NextSeq; got != seq {
		t.Errorf("d1's update check journaled %d records, want none", got-seq)
	}
	answers("DELETE", "/api/v1/deployments/d1", "", http.StatusNoContent)
	seq = st.log.Stats().NextSeq
	release()
	if code := <-advanced; code != http.StatusNotFound || st.log.Stats().NextSeq != seq {
		t.Errorf("the advance on deleted d1 = %d with %d records logged, want 404 with none", code, st.log.Stats().NextSeq-seq)
	}
}

// TestRefusedSettlementRecordEndsNoStream has the log refuse a build's
// deployment.settled: the deployment reads building, as it will after a
// restart, and its event stream does not end on a terminal frame.
func TestRefusedSettlementRecordEndsNoStream(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	s, _ := openDurable(t, t.TempDir(), func(c *Config) {
		c.DeployOptions = []xcbc.Option{xcbc.WithInstallHook(func(string, int) error {
			<-gate
			return nil
		})}
	})
	defer s.Close()
	if rec := do(t, s, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	refuseRecords(t, s)
	release()
	dep, _ := depRow(s, "d1")
	<-dep.h.Done()
	s.openTenant.store.wg.Wait() // the watcher has tried to journal the settlement
	var info deploymentInfo
	if do(t, s, "GET", "/api/v1/deployments/d1", "", &info); info.State != "building" {
		t.Errorf("with its settlement refused, d1 reads %q, want building", info.State)
	}
	// A stream that has not ended by the deadline never will: nothing is
	// left to journal the settlement.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/deployments/d1/events", nil).WithContext(ctx))
	if body := rec.Body.String(); strings.Contains(body, "event: state") {
		t.Errorf("with its settlement refused, the event stream ended:\n%s", body)
	}
}

// TestIndexedOnlyOnceJournaled parks a create and then a delete at the
// stop point, each with its record logged but not yet applied: until it is
// applied, a client reads the index as it was before the record.
func TestIndexedOnlyOnceJournaled(t *testing.T) {
	s, _ := openDurable(t, t.TempDir())
	defer s.Close()
	st := s.openTenant.store
	for _, tc := range []struct {
		method, body, park  string
		code, before, after int
	}{
		{"POST", `{"cluster":"littlefe"}`, recDeploymentCreated, http.StatusAccepted, http.StatusNotFound, http.StatusOK},
		{"DELETE", "", recDeploymentDeleted, http.StatusNoContent, http.StatusOK, http.StatusNotFound},
	} {
		path := "/api/v1/deployments"
		if tc.method == "DELETE" {
			path += "/d1"
			awaitSettled[deploymentInfo](t, s, "", "/api/v1/deployments/d1")
		}
		parked, release := parkAt(st, tc.park)
		answered := make(chan int, 1)
		go func() { answered <- do(t, s, tc.method, path, tc.body, nil).Code }()
		select {
		case <-parked:
		case <-time.After(time.Minute):
			release()
			t.Fatalf("no %s record was logged", tc.park)
		}
		before := do(t, s, "GET", "/api/v1/deployments/d1", "", nil).Code
		release()
		if code := <-answered; code != tc.code {
			t.Fatalf("%s %s = %d, want %d", tc.method, path, code, tc.code)
		}
		after := do(t, s, "GET", "/api/v1/deployments/d1", "", nil).Code
		if before != tc.before || after != tc.after {
			t.Errorf("GET d1 with its %s record unapplied = %d, once applied = %d; want %d, %d",
				tc.park, before, after, tc.before, tc.after)
		}
	}
}

// TestRowReadsWhileRecordsApply reads rows of every kind while records that
// write them apply: deployments created, settled and deleted, updates that
// rewrite a ready row's summary, scenario runs' checkpoints and
// settlements, and a campaign's outcomes, with a snapshot every eight
// records. Under -race a
// row read outside st.idx fails it; a reader that took st.idx's read side
// while holding it would hang it once apply waited for the write side.
func TestRowReadsWhileRecordsApply(t *testing.T) {
	s, _ := openDurable(t, t.TempDir(), func(c *Config) { c.SnapshotEvery = 8 })
	defer s.Close()
	id := deployReady(t, s, `{"cluster":"littlefe"}`)
	var fl fleetInfo
	if rec := do(t, s, "POST", "/api/v1/fleets", `{"name":"rows","members":2,"nodes":2,"workers":2,"provision":false}`, &fl); rec.Code != http.StatusAccepted {
		t.Fatalf("create fleet: %d %s", rec.Code, rec.Body.String())
	}
	run := `{"scenario":{"name":"rows","seed":3,"fleet":{"members":2,"nodes":2,"workers":2},` +
		`"phases":[{"kind":"provision"},{"kind":"jobs","count":40,"cores":1,"runtime":"10m"},{"kind":"metrics"}]}}`
	post := func(path, body string, want int) *httptest.ResponseRecorder {
		rec := do(t, s, "POST", path, body, nil)
		if rec.Code != want {
			t.Errorf("POST %s: %d %s, want %d", path, rec.Code, rec.Body.String(), want)
		}
		return rec
	}
	var writers, readers sync.WaitGroup
	writer := func(fn func()) {
		writers.Add(1)
		go func() { defer writers.Done(); fn() }()
	}
	writer(func() { // deployments: create, stream to settled, delete
		for range 3 {
			var dep deploymentInfo
			if err := json.Unmarshal(post("/api/v1/deployments", `{"cluster":"littlefe"}`, http.StatusAccepted).Body.Bytes(), &dep); err != nil {
				t.Error(err)
				return
			}
			do(t, s, "GET", "/api/v1/deployments/"+dep.ID+"/events", "", nil)
			if rec := do(t, s, "DELETE", "/api/v1/deployments/"+dep.ID, "", nil); rec.Code != http.StatusNoContent {
				t.Errorf("delete %s: %d %s", dep.ID, rec.Code, rec.Body.String())
			}
		}
	})
	writer(func() { // a ready row's ops and summary
		for range 4 {
			post("/api/v1/clusters/"+id+"/advance", `{"duration":"240h"}`, http.StatusOK)
			do(t, s, "GET", "/api/v1/clusters/"+id+"/updates?policy=auto-apply", "", nil)
		}
	})
	writer(func() { post("/api/v1/campaigns", `{"seeds":2,"workers":1}`, http.StatusAccepted) })
	done := make(chan struct{})
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				for _, path := range []string{"/deployments", "/deployments/" + id, "/deployments/" + id + "/events", "/clusters",
					"/fleets/" + fl.ID + "/scenarios", "/fleets/" + fl.ID + "/scenarios/s2", "/campaigns", "/campaigns/c1"} {
					if rec := do(t, s, "GET", "/api/v1"+path, "", nil); rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
						t.Errorf("GET %s: %d %s", path, rec.Code, rec.Body.String())
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 1; i <= 3; i++ { // a fleet's runs, one at a time
		post("/api/v1/fleets/"+fl.ID+"/scenarios", run, http.StatusAccepted)
		awaitSettled[scenarioRunInfo](t, s, "", fmt.Sprintf("/api/v1/fleets/%s/scenarios/s%d", fl.ID, i))
	}
	writers.Wait()
	awaitSettled[campaignInfo](t, s, "", "/api/v1/campaigns/c1")
	close(done)
	readers.Wait()
}
