package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

func TestFleetLifecycleOverREST(t *testing.T) {
	s := New(Config{})

	// Validation failures are synchronous 400s, including the resource
	// caps that keep one POST from exhausting the control plane.
	for _, body := range []string{
		`{`,
		`{"members": 0}`,
		`{"members": -2}`,
		`{"members": 4096}`,
		`{"members": 2, "cluster": "deep-thought"}`,
		`{"members": 2, "nodes": 100000}`,
		`{"members": 2000, "nodes": 100}`,
	} {
		if rec := do(t, s, "POST", "/api/v1/fleets", body, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", body, rec.Code)
		}
	}

	var created fleetInfo
	rec := do(t, s, "POST", "/api/v1/fleets", `{"name":"campus","members":3,"nodes":2,"parallelism":2,"workers":3}`, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST fleets = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.Status.Members != 3 || len(created.Members) != 3 {
		t.Fatalf("created = %+v", created)
	}

	info := awaitSettled[fleetInfo](t, s, "", "/api/v1/fleets/"+created.ID)
	if info.Status.Ready != 3 {
		t.Fatalf("settled fleet = %+v, want 3 ready", info.Status)
	}
	for _, m := range info.Members {
		if m.State != "ready" {
			t.Fatalf("member %s state %s", m.ID, m.State)
		}
	}

	// The list view includes it.
	var list struct {
		Fleets []fleetInfo `json:"fleets"`
	}
	do(t, s, "GET", "/api/v1/fleets", "", &list)
	if len(list.Fleets) != 1 || list.Fleets[0].ID != created.ID {
		t.Fatalf("list = %+v", list)
	}

	// Unknown fleet is 404.
	if rec := do(t, s, "GET", "/api/v1/fleets/f999", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown fleet = %d", rec.Code)
	}

	// Settled fleet deletes with 204 and disappears.
	if del := do(t, s, "DELETE", "/api/v1/fleets/"+created.ID, "", nil); del.Code != http.StatusNoContent {
		t.Fatalf("DELETE settled fleet = %d", del.Code)
	}
	if rec := do(t, s, "GET", "/api/v1/fleets/"+created.ID, "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET deleted fleet = %d", rec.Code)
	}
}

func TestScenarioRunOverREST(t *testing.T) {
	s := New(Config{})

	// The built-in listing names campus-100 and friends.
	var builtins struct {
		Scenarios []struct {
			Name    string `json:"name"`
			Members int    `json:"members"`
		} `json:"scenarios"`
	}
	do(t, s, "GET", "/api/v1/scenarios", "", &builtins)
	if len(builtins.Scenarios) < 3 {
		t.Fatalf("builtins = %+v", builtins)
	}

	// Create an unprovisioned fleet; the scenario's provision phase builds it.
	var created fleetInfo
	rec := do(t, s, "POST", "/api/v1/fleets", `{"name":"chaos","members":2,"nodes":2,"workers":2,"provision":false}`, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST fleets = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}

	// Bad scenario requests.
	base := "/api/v1/fleets/" + created.ID + "/scenarios"
	for body, want := range map[string]int{
		`{}`:                         http.StatusBadRequest,
		`{"name":"zzz"}`:             http.StatusNotFound,
		`{"name":"campus-100"}`:      http.StatusBadRequest, // 100 members vs fleet of 2
		`{"scenario":{"name":"x"}}`:  http.StatusBadRequest,
		`{"name":"a","scenario":{}}`: http.StatusBadRequest,
		`{"scenario":{"name":"x","fleet":{"members":2},"phases":[{"kind":"warp"}]}}`: http.StatusBadRequest,
	} {
		if rec := do(t, s, "POST", base, body, nil); rec.Code != want {
			t.Fatalf("POST %s = %d, want %d: %s", body, rec.Code, want, rec.Body.String())
		}
	}

	inline := `{"scenario":{
		"name": "rest-smoke", "seed": 11,
		"fleet": {"members": 2, "nodes": 2, "workers": 2},
		"phases": [
			{"kind": "provision"},
			{"kind": "jobs", "count": 1, "cores": 1, "runtime": "10m"},
			{"kind": "metrics"},
			{"kind": "assert", "invariants": [{"name": "all-ready"}, {"name": "jobs-conserved"}]}
		]
	}}`
	rec = do(t, s, "POST", base, inline, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST scenario = %d: %s", rec.Code, rec.Body.String())
	}
	var run scenarioRunInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &run); err != nil {
		t.Fatal(err)
	}
	if run.ID == "" || run.Scenario != "rest-smoke" || run.State != "running" {
		t.Fatalf("run = %+v", run)
	}

	// Wait for the run to settle and fetch the trace.
	got := awaitSettled[scenarioRunInfo](t, s, "", base+"/"+run.ID)
	if got.State != "passed" {
		t.Fatalf("run settled %s: %+v", got.State, got)
	}
	if got.Stats == nil || got.Stats.Ready != 2 || got.Stats.JobsSubmitted != 2 {
		t.Fatalf("stats = %+v", got.Stats)
	}
	if len(got.Events) == 0 || got.NextCursor != len(got.Events) {
		t.Fatalf("trace paging: %d events, next %d", len(got.Events), got.NextCursor)
	}
	// Cursor paging returns the tail.
	var page scenarioRunInfo
	do(t, s, "GET", fmt.Sprintf("%s/%s?cursor=%d", base, run.ID, got.NextCursor-1), "", &page)
	if len(page.Events) != 1 {
		t.Fatalf("cursor page = %d events, want 1", len(page.Events))
	}

	// The run list reports it, and unknown run IDs 404.
	var runs struct {
		Runs []scenarioRunInfo `json:"runs"`
	}
	do(t, s, "GET", base, "", &runs)
	if len(runs.Runs) != 1 || runs.Runs[0].State != "passed" {
		t.Fatalf("runs = %+v", runs)
	}
	if rec := do(t, s, "GET", base+"/s999", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown run = %d", rec.Code)
	}

	// The discovery document advertises the fleet routes.
	var index struct {
		Routes []struct {
			Path string `json:"path"`
		} `json:"routes"`
	}
	do(t, s, "GET", "/api/v1", "", &index)
	found := false
	for _, r := range index.Routes {
		if r.Path == "/api/v1/fleets/{id}/scenarios/{sid}" {
			found = true
		}
	}
	if !found {
		t.Fatal("discovery document does not list the scenario-run route")
	}
}

func TestKickstartScenarioNeedsUnprovisionedFleet(t *testing.T) {
	s := New(Config{})
	// Default provision:true — builds start immediately, so a scenario
	// arming kickstart faults must be refused with a clear 400.
	rec := do(t, s, "POST", "/api/v1/fleets", `{"members":1,"nodes":1,"workers":1}`, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST fleets = %d", rec.Code)
	}
	var created fleetInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	body := `{"scenario":{
		"name": "late-chaos", "seed": 1,
		"fleet": {"members": 1, "nodes": 1, "workers": 1},
		"phases": [
			{"kind": "fault", "fault": "kickstart", "probability": 0.5},
			{"kind": "provision"}
		]
	}}`
	rec = do(t, s, "POST", "/api/v1/fleets/"+created.ID+"/scenarios", body, nil)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "kickstart") {
		t.Fatalf("kickstart on provisioned fleet = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestConcurrentScenarioRunsRejected(t *testing.T) {
	s := New(Config{})
	rec := do(t, s, "POST", "/api/v1/fleets", `{"members":2,"nodes":1,"workers":2,"provision":false}`, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST fleets = %d", rec.Code)
	}
	var created fleetInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	base := "/api/v1/fleets/" + created.ID + "/scenarios"
	inline := `{"scenario":{
		"name": "slow", "seed": 1,
		"fleet": {"members": 2, "nodes": 1, "workers": 2},
		"phases": [{"kind": "provision"}, {"kind": "assert", "invariants": [{"name": "all-ready"}]}]
	}}`
	if rec := do(t, s, "POST", base, inline, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("first run = %d: %s", rec.Code, rec.Body.String())
	}
	// While the first run is live a second is a 409; after it settles the
	// fleet accepts another.
	second := do(t, s, "POST", base, inline, nil)
	if second.Code != http.StatusConflict && second.Code != http.StatusAccepted {
		t.Fatalf("second run = %d: %s", second.Code, second.Body.String())
	}
	var runs struct {
		Runs []scenarioRunInfo `json:"runs"`
	}
	do(t, s, "GET", base, "", &runs)
	for _, r := range runs.Runs {
		awaitSettled[scenarioRunInfo](t, s, "", base+"/"+r.ID)
	}
	if rec := do(t, s, "POST", base, inline, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run after settle = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestTracePagesMatchWholeTraceCopy pins the windowed trace read: every
// page of a settled campus-100 run, at several page sizes and past the
// end, carries exactly the bytes the previous implementation produced by
// copying the whole trace and slicing it — which is kept here as the
// reference.
func TestTracePagesMatchWholeTraceCopy(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if rec := do(t, s, "POST", "/api/v1/fleets",
		`{"name":"campus","members":100,"cluster":"littlefe","nodes":4,"parallelism":4,"workers":8}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("create fleet: %d %s", rec.Code, rec.Body.String())
	}
	if info := awaitSettled[fleetInfo](t, s, "", "/api/v1/fleets/f1"); info.Status.Ready != 100 {
		t.Fatalf("ready = %d, want 100", info.Status.Ready)
	}
	if rec := do(t, s, "POST", "/api/v1/fleets/f1/scenarios", `{"name":"campus-100"}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run scenario: %d %s", rec.Code, rec.Body.String())
	}
	if info := awaitSettled[scenarioRunInfo](t, s, "", "/api/v1/fleets/f1/scenarios/s1"); info.State != "passed" {
		t.Fatalf("campus-100 settled %q: %v", info.State, info.Violations)
	}
	run := runRow(s, "f1", "s1")
	_, result, _ := settled(s, run)
	whole := result.Trace()
	if len(whole) < 400 || result.TraceLen() != len(whole) {
		t.Fatalf("trace has %d events, TraceLen %d", len(whole), result.TraceLen())
	}

	reference := func(pg page) []byte {
		info := runInfoOf(s.openTenant.store, run, false, page{})
		start, end := pg.window(len(whole))
		info.Events, info.NextCursor = whole[start:end], end
		body, err := json.Marshal(info)
		if err != nil {
			t.Fatal(err)
		}
		return append(body, '\n')
	}
	for _, limit := range []int{1, 37, 100, 1000} {
		pages := 0
		for cursor := 0; ; pages++ {
			rec := do(t, s, "GET", fmt.Sprintf("/api/v1/fleets/f1/scenarios/s1?cursor=%d&limit=%d", cursor, limit), "", nil)
			if want := reference(page{cursor: cursor, limit: limit}); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("limit %d cursor %d:\n got %s\nwant %s", limit, cursor, rec.Body.Bytes(), want)
			}
			if cursor >= len(whole) {
				break // the page past the end was compared too
			}
			cursor = min(cursor+limit, len(whole))
		}
		if want := (len(whole) + limit - 1) / limit; pages != want {
			t.Fatalf("limit %d: %d pages, want %d", limit, pages, want)
		}
	}
	// The run list reports the trace length without carrying events.
	var list struct {
		Runs []scenarioRunInfo `json:"runs"`
	}
	do(t, s, "GET", "/api/v1/fleets/f1/scenarios", "", &list)
	if len(list.Runs) != 1 || list.Runs[0].NextCursor != len(whole) || list.Runs[0].Events != nil {
		t.Fatalf("run list = %+v", list.Runs)
	}
}

// TestUnprovisionedFleetDeletes: a fleet created with "provision": false
// has no builds to cancel, so DELETE removes it (204) and journals
// fleet.deleted, and it stays gone after a restart. A fleet with a run
// still live answers 409 until the run settles.
func TestUnprovisionedFleetDeletes(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	for _, name := range []string{"idle", "busy"} {
		body := fmt.Sprintf(`{"name":%q,"members":2,"nodes":1,"provision":false}`, name)
		if rec := do(t, s, "POST", "/api/v1/fleets", body, nil); rec.Code != http.StatusAccepted {
			t.Fatalf("create %s: %d %s", name, rec.Code, rec.Body.String())
		}
	}
	if rec := do(t, s, "DELETE", "/api/v1/fleets/f1", "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE unprovisioned fleet = %d %s, want 204", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "GET", "/api/v1/fleets/f1", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET deleted fleet = %d, want 404", rec.Code)
	}

	// A run the store has started and not settled holds f2.
	st := s.openTenant.store
	run := &runMirror{Started: scenarioStartedRec{FleetID: "f2", Name: "held"}}
	run.Started.row = run
	if err := st.emit(recScenarioStarted, &run.Started); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "DELETE", "/api/v1/fleets/f2", "", nil); rec.Code != http.StatusConflict {
		t.Fatalf("DELETE fleet with a live run = %d %s, want 409", rec.Code, rec.Body.String())
	}
	if err := st.emit(recScenarioSettled, scenarioSettledRec{FleetID: "f2", RunID: run.Started.RunID, State: "error", Error: "held"}); err != nil {
		t.Fatal(err)
	}

	listed := func(s *Server) []string {
		var list struct {
			Fleets []fleetInfo `json:"fleets"`
		}
		do(t, s, "GET", "/api/v1/fleets", "", &list)
		return mapSlice(list.Fleets, func(f fleetInfo) string { return f.ID })
	}
	if got := listed(s); len(got) != 1 || got[0] != "f2" {
		t.Fatalf("fleet list = %v, want [f2]", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openDurable(t, dir)
	defer s2.Close()
	if rec := do(t, s2, "GET", "/api/v1/fleets/f1", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET deleted fleet after restart = %d, want 404", rec.Code)
	}
	if got := listed(s2); len(got) != 1 || got[0] != "f2" {
		t.Fatalf("fleet list after restart = %v, want [f2]", got)
	}
	if rec := do(t, s2, "DELETE", "/api/v1/fleets/f2", "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE settled-run fleet after restart = %d %s, want 204", rec.Code, rec.Body.String())
	}
}
