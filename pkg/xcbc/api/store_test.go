package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xcbc/internal/wal"
	"xcbc/pkg/xcbc"
)

// openDurable opens a server on dir and fails the test on error.
func openDurable(t *testing.T, dir string, mut ...func(*Config)) (*Server, *RecoveryReport) {
	t.Helper()
	cfg := Config{DataDir: dir}
	for _, m := range mut {
		m(&cfg)
	}
	s, rep, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rep
}

// TestDiscoveryAuditsStoreAndFleetRoutes audits the GET /api/v1 discovery
// document against the durability route and the whole fleet/scenario
// surface: every route a client would feature-detect must be advertised.
func TestDiscoveryAuditsStoreAndFleetRoutes(t *testing.T) {
	s := New(Config{})
	var doc struct {
		Routes []routeInfo `json:"routes"`
	}
	if rec := do(t, s, "GET", "/api/v1", "", &doc); rec.Code != http.StatusOK {
		t.Fatalf("discovery: %d", rec.Code)
	}
	seen := make(map[string]bool, len(doc.Routes))
	for _, r := range doc.Routes {
		seen[r.Method+" "+r.Path] = true
	}
	for _, want := range []string{
		"GET /api/v1/store",
		"GET /api/v1/scenarios",
		"GET /api/v1/fleets",
		"POST /api/v1/fleets",
		"GET /api/v1/fleets/{id}",
		"DELETE /api/v1/fleets/{id}",
		"POST /api/v1/fleets/{id}/scenarios",
		"GET /api/v1/fleets/{id}/scenarios",
		"GET /api/v1/fleets/{id}/scenarios/{sid}",
	} {
		if !seen[want] {
			t.Errorf("discovery missing route %s", want)
		}
	}
	// The document and the mux agree: every advertised route answers
	// something other than 404 for its method (a 404-advertising document
	// would send clients at routes that do not exist).
	if !seen["GET /api/v1/store"] {
		t.Fatal("store route not advertised")
	}
	if rec := do(t, s, "GET", "/api/v1/store", "", nil); rec.Code != http.StatusOK {
		t.Errorf("advertised store route answered %d", rec.Code)
	}
}

func TestNewPanicsOnDataDir(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with DataDir did not panic")
		}
	}()
	New(Config{DataDir: t.TempDir()})
}

// TestStoreStatusRoute pins GET /api/v1/store on both kinds of server: a
// memory-only server reports durable=false and nothing else; a durable one
// reports the data directory and WAL accounting.
func TestStoreStatusRoute(t *testing.T) {
	mem := New(Config{})
	var info storeInfo
	if rec := do(t, mem, "GET", "/api/v1/store", "", &info); rec.Code != http.StatusOK {
		t.Fatalf("store on memory server: %d", rec.Code)
	}
	if info.Durable || info.DataDir != "" {
		t.Fatalf("memory server store info = %+v", info)
	}

	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	defer s.Close()
	do(t, s, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, nil)
	if rec := do(t, s, "GET", "/api/v1/store", "", &info); rec.Code != http.StatusOK {
		t.Fatalf("store on durable server: %d", rec.Code)
	}
	if !info.Durable || info.DataDir != dir {
		t.Fatalf("durable store info = %+v", info)
	}
	if info.NextSeq < 1 || info.WALBytes <= 0 {
		t.Errorf("store info shows no WAL activity: %+v", info)
	}
}

// TestDurableDeploymentRestart is the core restart round-trip: deploy,
// operate the cluster, close, reopen the same directory, and verify the
// recovered deployment answers every view exactly as the original did.
func TestDurableDeploymentRestart(t *testing.T) {
	dir := t.TempDir()
	s1, rep := openDurable(t, dir)
	if rep.Deployments != 0 || rep.Fleets != 0 {
		t.Fatalf("fresh dir recovered %+v", rep)
	}

	var created deploymentInfo
	rec := do(t, s1, "POST", "/api/v1/deployments",
		`{"cluster":"littlefe","scheduler":"torque","parallelism":2}`, &created)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	final, events := pollDeployment(t, s1, created.ID)
	if final.State != "ready" {
		t.Fatalf("settled %q: %s", final.State, final.Error)
	}

	// Day-2 operations a restart must replay: two submits, one cancel, a
	// clock advance, a metrics poll, and an update check.
	for _, op := range []struct{ method, path, body string }{
		{"POST", "/api/v1/clusters/d1/jobs", `{"name":"relax","user":"alice","cores":2,"walltime":"1h","runtime":"20m"}`},
		{"POST", "/api/v1/clusters/d1/jobs", `{"name":"blast","user":"bob","cores":1,"walltime":"30m","runtime":"10m"}`},
		{"DELETE", "/api/v1/clusters/d1/jobs/2", ""},
		{"POST", "/api/v1/clusters/d1/advance", `{"duration":"45m"}`},
		{"GET", "/api/v1/clusters/d1/metrics", ""},
		{"GET", "/api/v1/clusters/d1/updates", ""},
	} {
		if rec := do(t, s1, op.method, op.path, op.body, nil); rec.Code >= 300 {
			t.Fatalf("%s %s: %d %s", op.method, op.path, rec.Code, rec.Body.String())
		}
	}
	jobsBefore := do(t, s1, "GET", "/api/v1/clusters/d1/jobs", "", nil).Body.String()
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, rep2 := openDurable(t, dir)
	defer s2.Close()
	if rep2.Deployments != 1 || rep2.Rebuilt != 1 || rep2.OpsReplayed != 6 {
		t.Fatalf("recovery report = %+v, want 1 deployment rebuilt with 6 ops", rep2)
	}
	var after deploymentInfo
	if rec := do(t, s2, "GET", "/api/v1/deployments/d1", "", &after); rec.Code != http.StatusOK {
		t.Fatalf("recovered deployment: %d", rec.Code)
	}
	if after.State != "ready" || after.Cluster != final.Cluster || after.Nodes != final.Nodes ||
		after.Scheduler != final.Scheduler || !after.Created.Equal(final.Created) {
		t.Fatalf("recovered = %+v, want %+v", after, final)
	}
	if len(after.Events) != len(events) {
		t.Errorf("recovered journal has %d events, original %d", len(after.Events), len(events))
	}
	jobsAfter := do(t, s2, "GET", "/api/v1/clusters/d1/jobs", "", nil).Body.String()
	if jobsAfter != jobsBefore {
		t.Errorf("replayed job state diverged:\nbefore: %s\nafter:  %s", jobsBefore, jobsAfter)
	}

	// ID allocation continues where it left off.
	var next deploymentInfo
	do(t, s2, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, &next)
	if next.ID != "d2" {
		t.Errorf("next deployment ID = %q, want d2", next.ID)
	}
}

// TestDurableArchivedDeploymentRestart covers terminal non-ready builds: a
// failed deployment reloads as an archived record — state, error, and the
// complete journal — with day-2 routes answering 422, and its deletion
// persists across a further restart.
func TestDurableArchivedDeploymentRestart(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("disk on fire")
	s1, _ := openDurable(t, dir, func(c *Config) {
		c.DeployOptions = []xcbc.Option{xcbc.WithInstallHook(func(node string, attempt int) error {
			return boom
		})}
	})
	var created deploymentInfo
	do(t, s1, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, &created)
	final, events := pollDeployment(t, s1, created.ID)
	if final.State != "failed" || final.Error == "" {
		t.Fatalf("settled %q (%s), want failed", final.State, final.Error)
	}
	s1.Close()

	s2, rep := openDurable(t, dir)
	if rep.Archived != 1 || rep.Rebuilt != 0 {
		t.Fatalf("recovery report = %+v, want 1 archived", rep)
	}
	var after deploymentInfo
	do(t, s2, "GET", "/api/v1/deployments/d1", "", &after)
	if after.State != "failed" || after.Error != final.Error {
		t.Fatalf("archived = state %q error %q, want %q / %q", after.State, after.Error, final.State, final.Error)
	}
	if len(after.Events) != len(events) {
		t.Errorf("archived journal has %d events, original %d", len(after.Events), len(events))
	}
	if rec := do(t, s2, "GET", "/api/v1/clusters/d1/jobs", "", nil); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("day-2 on archived failed build: %d, want 422", rec.Code)
	}
	if rec := do(t, s2, "DELETE", "/api/v1/deployments/d1", "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete archived: %d", rec.Code)
	}
	s2.Close()

	s3, rep3 := openDurable(t, dir)
	defer s3.Close()
	if rep3.Deployments != 0 {
		t.Fatalf("deleted deployment came back: %+v", rep3)
	}
}

// TestDurableInterruptedDeployment kills the server mid-build. Without
// ResumeInterrupted the next open reconciles the deployment to a terminal
// failed (interrupted) record — and emits the settlement, so a third open
// sees an ordinary archived deployment.
func TestDurableInterruptedDeployment(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	s1, _ := openDurable(t, dir, func(c *Config) {
		c.DeployOptions = []xcbc.Option{xcbc.WithInstallHook(func(node string, attempt int) error {
			<-gate
			return nil
		})}
	})
	var created deploymentInfo
	rec := do(t, s1, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, &created)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	s1.Close() // the build is still gated: this is the crash
	release()

	s2, rep := openDurable(t, dir)
	if rep.Interrupted != 1 {
		t.Fatalf("recovery report = %+v, want 1 interrupted", rep)
	}
	var after deploymentInfo
	do(t, s2, "GET", "/api/v1/deployments/d1", "", &after)
	if after.State != "failed" || !strings.Contains(after.Error, "interrupted") {
		t.Fatalf("interrupted deployment = state %q error %q", after.State, after.Error)
	}
	if rec := do(t, s2, "GET", "/api/v1/clusters/d1/metrics", "", nil); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("day-2 on interrupted build: %d, want 422", rec.Code)
	}
	s2.Close()

	// The reconciliation was journaled: the third open archives it like any
	// other failed build instead of reporting a fresh interruption.
	s3, rep3 := openDurable(t, dir)
	defer s3.Close()
	if rep3.Interrupted != 0 || rep3.Archived != 1 {
		t.Fatalf("third open report = %+v, want 1 archived, 0 interrupted", rep3)
	}
}

// TestDurableResumeInterrupted is the opt-in alternative: with
// ResumeInterrupted the crashed build restarts from its recorded request
// and runs to ready.
func TestDurableResumeInterrupted(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	s1, _ := openDurable(t, dir, func(c *Config) {
		c.DeployOptions = []xcbc.Option{xcbc.WithInstallHook(func(node string, attempt int) error {
			<-gate
			return nil
		})}
	})
	do(t, s1, "POST", "/api/v1/deployments", `{"cluster":"littlefe","parallelism":2}`, nil)
	s1.Close()
	release()

	s2, rep := openDurable(t, dir, func(c *Config) { c.ResumeInterrupted = true })
	if rep.Resumed != 1 || rep.Interrupted != 0 {
		t.Fatalf("recovery report = %+v, want 1 resumed", rep)
	}
	final, _ := pollDeployment(t, s2, "d1")
	if final.State != "ready" {
		t.Fatalf("resumed build settled %q: %s", final.State, final.Error)
	}
	if rec := do(t, s2, "POST", "/api/v1/clusters/d1/jobs",
		`{"name":"post-resume","cores":1,"walltime":"10m"}`, nil); rec.Code >= 300 {
		t.Errorf("job on resumed cluster: %d", rec.Code)
	}
	s2.Close()

	// The resumed build settled ready and journaled it: the next open
	// rebuilds it like any ready deployment and replays the job.
	s3, rep3 := openDurable(t, dir)
	defer s3.Close()
	if rep3.Rebuilt != 1 || rep3.OpsReplayed != 1 {
		t.Fatalf("post-resume report = %+v, want 1 rebuilt with 1 op", rep3)
	}
}

// smallScenario is a cheap two-member script for restart tests.
const smallScenario = `{
	"name": "tiny",
	"seed": 7,
	"fleet": {"members": 2, "nodes": 2, "workers": 2},
	"phases": [
		{"kind": "provision"},
		{"kind": "jobs", "count": 3, "cores": 1, "runtime": "5m", "walltime": "30m"},
		{"kind": "advance", "duration": "1h"},
		{"kind": "assert", "invariants": [{"name": "all-ready"}, {"name": "jobs-conserved"}]}
	]
}`

// waitRunSettled polls one scenario run until it leaves "running".
func waitRunSettled(t *testing.T, s *Server, fleetID, runID string) scenarioRunInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var info scenarioRunInfo
		rec := do(t, s, "GET", fmt.Sprintf("/api/v1/fleets/%s/scenarios/%s", fleetID, runID), "", &info)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET run: %d %s", rec.Code, rec.Body.String())
		}
		if info.State != "running" {
			return info
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("scenario run never settled")
	return scenarioRunInfo{}
}

// TestDurableFleetScenarioRestart round-trips a fleet with a settled
// scenario run: the restarted server re-provisions the fleet, restores the
// run's recorded result (state, stats, full trace) without re-running it,
// and keeps serving new runs with continuing IDs.
func TestDurableFleetScenarioRestart(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openDurable(t, dir)
	var fl fleetInfo
	rec := do(t, s1, "POST", "/api/v1/fleets", `{"name":"tiny","members":2,"nodes":2,"workers":2}`, &fl)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create fleet: %d %s", rec.Code, rec.Body.String())
	}
	waitFleetSettled(t, s1.Handler(), fl.ID)
	rec = do(t, s1, "POST", "/api/v1/fleets/"+fl.ID+"/scenarios",
		`{"scenario": `+smallScenario+`}`, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("run scenario: %d %s", rec.Code, rec.Body.String())
	}
	before := waitRunSettled(t, s1, fl.ID, "s1")
	if before.State != "passed" {
		t.Fatalf("run settled %q: %s %v", before.State, before.Error, before.Violations)
	}
	traceBefore := do(t, s1, "GET", "/api/v1/fleets/"+fl.ID+"/scenarios/s1?cursor=0", "", nil).Body.String()
	s1.Close()

	s2, rep := openDurable(t, dir)
	if rep.Fleets != 1 || rep.Runs != 1 || rep.Replayed != 0 || rep.ReplayMismatches != 0 {
		t.Fatalf("recovery report = %+v, want 1 fleet with 1 restored run", rep)
	}
	var flAfter fleetInfo
	do(t, s2, "GET", "/api/v1/fleets/"+fl.ID, "", &flAfter)
	if flAfter.Status.Ready != 2 || flAfter.Scenarios != 1 {
		t.Fatalf("recovered fleet = %+v", flAfter)
	}
	traceAfter := do(t, s2, "GET", "/api/v1/fleets/"+fl.ID+"/scenarios/s1?cursor=0", "", nil).Body.String()
	if traceAfter != traceBefore {
		t.Errorf("restored run diverged:\nbefore: %s\nafter:  %s", traceBefore, traceAfter)
	}

	// A new run on the recovered fleet continues the ID sequence.
	rec = do(t, s2, "POST", "/api/v1/fleets/"+fl.ID+"/scenarios", `{"scenario": `+smallScenario+`}`, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("second run: %d %s", rec.Code, rec.Body.String())
	}
	var run2 scenarioRunInfo
	if err := json.Unmarshal([]byte(rec.Body.String()), &run2); err != nil || run2.ID != "s2" {
		t.Fatalf("second run ID = %q (%v), want s2", run2.ID, err)
	}
	waitRunSettled(t, s2, fl.ID, "s2")
	s2.Close()

	// Fleet deletion persists too.
	s3, _ := openDurable(t, dir)
	if rec := do(t, s3, "DELETE", "/api/v1/fleets/"+fl.ID, "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete fleet: %d", rec.Code)
	}
	s3.Close()
	s4, rep4 := openDurable(t, dir)
	defer s4.Close()
	if rep4.Fleets != 0 {
		t.Fatalf("deleted fleet came back: %+v", rep4)
	}
}

// TestScenarioTraceCursorPastEnd pins the trace paging boundary: a cursor
// beyond the end of a settled run's trace is not an error but a clean
// empty page, with next_cursor still reporting the trace length.
func TestScenarioTraceCursorPastEnd(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rec := do(t, s, "POST", "/api/v1/fleets", `{"name":"tiny","members":2,"nodes":2,"workers":2,"provision":false}`, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create fleet: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "POST", "/api/v1/fleets/f1/scenarios", `{"scenario": `+smallScenario+`}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run: %d %s", rec.Code, rec.Body.String())
	}
	settled := waitRunSettled(t, s, "f1", "s1")
	if settled.NextCursor == 0 {
		t.Fatalf("settled run has no trace: %+v", settled)
	}
	var page scenarioRunInfo
	rc := do(t, s, "GET", fmt.Sprintf("/api/v1/fleets/f1/scenarios/s1?cursor=%d", settled.NextCursor+1000), "", &page)
	if rc.Code != http.StatusOK {
		t.Fatalf("cursor past end: %d %s", rc.Code, rc.Body.String())
	}
	if len(page.Events) != 0 {
		t.Errorf("cursor past end returned %d events, want empty page", len(page.Events))
	}
	if page.NextCursor != settled.NextCursor {
		t.Errorf("next_cursor = %d, want %d", page.NextCursor, settled.NextCursor)
	}
}

// dirBytes snapshots every file under dir, for tests asserting that a
// refused Open left the directory untouched.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOpenFailsStopOnUnreadableRecord appends a record recovery cannot
// read — an unknown type, then a known type with a corrupt payload — and
// requires Open to refuse with the typed error naming the record, leaving
// every byte of the DataDir as it found it (skipping the record would let
// the next snapshot truncate the log and make the loss permanent).
func TestOpenFailsStopOnUnreadableRecord(t *testing.T) {
	for _, tc := range []struct {
		name, typ, payload string
	}{
		{"unknown type", "tenant.renamed", `{"id":"d1"}`},
		{"bad JSON", recDeploymentSettled, `{"id":"d1","state":`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendJSON(recFleetDeleted, fleetDeletedRec{ID: "f9"}); err != nil {
				t.Fatal(err)
			}
			seq, err := l.Append(tc.typ, []byte(tc.payload))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			before := dirBytes(t, dir)

			s, _, err := Open(Config{DataDir: dir, SnapshotEvery: 1})
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a log it cannot fully read")
			}
			var re *recordError
			if !errors.As(err, &re) || re.Seq != seq || re.Type != tc.typ {
				t.Fatalf("Open error = %v, want a recordError for seq %d type %s", err, seq, tc.typ)
			}
			if after := dirBytes(t, dir); !maps.Equal(before, after) {
				t.Errorf("refused Open changed the DataDir:\nbefore %d files %v\nafter  %d files %v",
					len(before), slices.Sorted(maps.Keys(before)), len(after), slices.Sorted(maps.Keys(after)))
			}
		})
	}
}

// TestLiveAndRecoveryApplyAgree walks one script covering all 15 record
// types through two mirrors — one applying each typed value as emit does,
// one applying decodeRecord of its marshalled bytes as recovery does — and
// requires byte-identical mirror JSON after every step, each step but the
// retired fleet.member having changed the mirror.
func TestLiveAndRecoveryApplyAgree(t *testing.T) {
	yes := true
	now := time.Now() // carries a monotonic reading the log never sees
	script := []struct {
		typ string
		rec record
	}{
		{recDeploymentCreated, depCreatedRec{ID: "d7", Path: "xcbc", Created: now, Cluster: "LittleFe", Site: "IU", Nodes: 6,
			Req: createDeploymentRequest{Cluster: "littlefe", Rolls: []string{}, Profiles: nil, Parallelism: 2}}},
		{recDeploymentEvent, depEventRec{ID: "d7", Event: eventInfo{Seq: 0, Stage: "frontend", Packages: 3, Elapsed: "1s"}}},
		{recDeploymentSettled, depSettledRec{ID: "d7", State: "ready"}},
		{recClusterOp, clusterOpRec{ID: "d7", Op: "job.submit", JobID: 1, Job: &submitJobRequest{Name: "hpl", Cores: 2, Walltime: "1h"}}},
		{recClusterOp, clusterOpRec{ID: "d7", Op: "updates", Policy: "notify", At: now}},
		{recFleetCreated, fleetCreatedRec{ID: "f2", Name: "tiny", Created: now,
			Req: createFleetRequest{Name: "tiny", Members: 2, Provision: &yes}}},
		{recFleetMember, fleetMemberRec{}}, // still decoded (old DataDirs hold them), never applied
		{recFleetProvisioned, fleetProvisionedRec{ID: "f2"}},
		{recScenarioStarted, scenarioStartedRec{FleetID: "f2", RunID: "s1", Name: "tiny", Created: now,
			Scenario: json.RawMessage("{ \"name\": \"<tiny>\",\n\t\"seed\": 7 }")}},
		{recScenarioProgress, scenarioProgressRec{FleetID: "f2", RunID: "s1", Cursor: 4, Hash: 1<<63 + 5}},
		{recScenarioSettled, scenarioSettledRec{FleetID: "f2", RunID: "s1", State: "passed", Result: json.RawMessage(`{"passed": true}`)}},
		{recCampaignStarted, campaignStartedRec{ID: "c3", Created: now, Spec: xcbc.CampaignSpec{Seeds: 2, StartSeed: 9}}},
		{recCampaignSeed, campaignSeedRec{ID: "c3", Outcome: xcbc.CampaignSeedOutcome{Seed: 9, State: xcbc.CampaignSeedFailed,
			Failure: &xcbc.CampaignFailure{Seed: 9, Violations: []string{"jobs-conserved"}}}}},
		{recCampaignSettled, campaignSettledRec{ID: "c3", State: "failed"}},
		{recFleetDeleted, fleetDeletedRec{ID: "f2"}},
		{recDeploymentDeleted, depDeletedRec{ID: "d7"}},
		// A build that does not end ready brings its journal in its settled
		// record (d8); deployment.event is no longer written, but the ones an
		// older DataDir holds still apply: they stay a cancelled build's
		// journal (d9) and are dropped when the build settles ready (d10).
		{recDeploymentCreated, depCreatedRec{ID: "d8", Path: "xcbc", Created: now, Req: createDeploymentRequest{Cluster: "littlefe"}}},
		{recDeploymentSettled, depSettledRec{ID: "d8", State: "failed", Error: "all computes quarantined", Events: []eventInfo{
			{Seq: 0, Stage: "frontend", Packages: 3, Elapsed: "1s"},
			{Seq: 1, Stage: "quarantine", Node: "compute-0-0", Message: `<PXE> & "retries"`},
			{Seq: 2, Stage: "failed"},
		}}},
		{recDeploymentCreated, depCreatedRec{ID: "d9", Path: "xcbc", Created: now, Req: createDeploymentRequest{Cluster: "littlefe"}}},
		{recDeploymentEvent, depEventRec{ID: "d9", Event: eventInfo{Seq: 0, Stage: "frontend", Packages: 3, Elapsed: "1s"}}},
		{recDeploymentSettled, depSettledRec{ID: "d9", State: "cancelled", Error: "context canceled"}},
		{recDeploymentCreated, depCreatedRec{ID: "d10", Path: "xcbc", Created: now, Req: createDeploymentRequest{Cluster: "littlefe"}}},
		{recDeploymentEvent, depEventRec{ID: "d10", Event: eventInfo{Seq: 0, Stage: "frontend", Packages: 3, Elapsed: "1s"}}},
		{recDeploymentEvent, depEventRec{ID: "d10", Event: eventInfo{Seq: 1, Stage: "compute", Node: "compute-0-0", Elapsed: "2s"}}},
		{recDeploymentSettled, depSettledRec{ID: "d10", State: "ready"}},
	}
	live, recovered := newMirror(), newMirror()
	covered := map[string]bool{}
	prev := ""
	for i, step := range script {
		data, err := json.Marshal(step.rec)
		if err != nil {
			t.Fatalf("step %d %s: %v", i, step.typ, err)
		}
		decoded, err := decodeRecord(step.typ, data)
		if err != nil {
			t.Fatalf("step %d: decodeRecord(%s, %s): %v", i, step.typ, data, err)
		}
		step.rec.apply(live)
		decoded.apply(recovered)
		a, errA := json.Marshal(live)
		b, errB := json.Marshal(recovered)
		if errA != nil || errB != nil {
			t.Fatalf("step %d %s: marshal mirrors: %v / %v", i, step.typ, errA, errB)
		}
		if string(a) != string(b) {
			t.Fatalf("step %d %s: mirrors diverge\n live:      %s\n recovered: %s", i, step.typ, a, b)
		}
		if string(a) == prev && step.typ != recFleetMember {
			t.Errorf("step %d %s left the mirror unchanged; the script no longer exercises it", i, step.typ)
		}
		prev = string(a)
		covered[step.typ] = true
	}
	if len(covered) != 15 {
		t.Errorf("script covers %d record types, want all 15", len(covered))
	}
	for id, want := range map[string]int{"d8": 3, "d9": 1, "d10": 0} {
		if got := len(recovered.Deployments[id].Events); got != want {
			t.Errorf("the mirror holds %d journal events for %s, want %d", got, id, want)
		}
	}
}
