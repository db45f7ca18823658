package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func getJSON(t *testing.T, h http.Handler, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec
}

// waitFleetSettled polls until the fleet reports settled.
func waitFleetSettled(t *testing.T, h http.Handler, id string) fleetInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var info fleetInfo
		rec := getJSON(t, h, "/api/v1/fleets/"+id, &info)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET fleet: %d %s", rec.Code, rec.Body.String())
		}
		if info.Settled {
			return info
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("fleet never settled")
	return fleetInfo{}
}

func TestFleetLifecycleOverREST(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

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
		if rec := postJSON(t, h, "/api/v1/fleets", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", body, rec.Code)
		}
	}

	var created fleetInfo
	rec := postJSON(t, h, "/api/v1/fleets", `{"name":"campus","members":3,"nodes":2,"parallelism":2,"workers":3}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST fleets = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.Status.Members != 3 || len(created.Members) != 3 {
		t.Fatalf("created = %+v", created)
	}

	info := waitFleetSettled(t, h, created.ID)
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
	getJSON(t, h, "/api/v1/fleets", &list)
	if len(list.Fleets) != 1 || list.Fleets[0].ID != created.ID {
		t.Fatalf("list = %+v", list)
	}

	// Unknown fleet is 404.
	if rec := getJSON(t, h, "/api/v1/fleets/f999", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown fleet = %d", rec.Code)
	}

	// Settled fleet deletes with 204 and disappears.
	req := httptest.NewRequest("DELETE", "/api/v1/fleets/"+created.ID, nil)
	del := httptest.NewRecorder()
	h.ServeHTTP(del, req)
	if del.Code != http.StatusNoContent {
		t.Fatalf("DELETE settled fleet = %d", del.Code)
	}
	if rec := getJSON(t, h, "/api/v1/fleets/"+created.ID, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET deleted fleet = %d", rec.Code)
	}
}

func TestScenarioRunOverREST(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	// The built-in listing names campus-100 and friends.
	var builtins struct {
		Scenarios []struct {
			Name    string `json:"name"`
			Members int    `json:"members"`
		} `json:"scenarios"`
	}
	getJSON(t, h, "/api/v1/scenarios", &builtins)
	if len(builtins.Scenarios) < 3 {
		t.Fatalf("builtins = %+v", builtins)
	}

	// Create an unprovisioned fleet; the scenario's provision phase builds it.
	var created fleetInfo
	rec := postJSON(t, h, "/api/v1/fleets", `{"name":"chaos","members":2,"nodes":2,"workers":2,"provision":false}`)
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
		if rec := postJSON(t, h, base, body); rec.Code != want {
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
	rec = postJSON(t, h, base, inline)
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

	// Poll the run until it settles and fetch the trace.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got scenarioRunInfo
		if rec := getJSON(t, h, base+"/"+run.ID, &got); rec.Code != http.StatusOK {
			t.Fatalf("GET run = %d: %s", rec.Code, rec.Body.String())
		} else if got.State != "running" {
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
			getJSON(t, h, fmt.Sprintf("%s/%s?cursor=%d", base, run.ID, got.NextCursor-1), &page)
			if len(page.Events) != 1 {
				t.Fatalf("cursor page = %d events, want 1", len(page.Events))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scenario run never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The run list reports it, and unknown run IDs 404.
	var runs struct {
		Runs []scenarioRunInfo `json:"runs"`
	}
	getJSON(t, h, base, &runs)
	if len(runs.Runs) != 1 || runs.Runs[0].State != "passed" {
		t.Fatalf("runs = %+v", runs)
	}
	if rec := getJSON(t, h, base+"/s999", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown run = %d", rec.Code)
	}

	// The discovery document advertises the fleet routes.
	var index struct {
		Routes []struct {
			Path string `json:"path"`
		} `json:"routes"`
	}
	getJSON(t, h, "/api/v1", &index)
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
	h := s.Handler()
	// Default provision:true — builds start immediately, so a scenario
	// arming kickstart faults must be refused with a clear 400.
	rec := postJSON(t, h, "/api/v1/fleets", `{"members":1,"nodes":1,"workers":1}`)
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
	rec = postJSON(t, h, "/api/v1/fleets/"+created.ID+"/scenarios", body)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "kickstart") {
		t.Fatalf("kickstart on provisioned fleet = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestConcurrentScenarioRunsRejected(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	rec := postJSON(t, h, "/api/v1/fleets", `{"members":2,"nodes":1,"workers":2,"provision":false}`)
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
	if rec := postJSON(t, h, base, inline); rec.Code != http.StatusAccepted {
		t.Fatalf("first run = %d: %s", rec.Code, rec.Body.String())
	}
	// While the first run is live a second is a 409; after it settles the
	// fleet accepts another.
	second := postJSON(t, h, base, inline)
	if second.Code != http.StatusConflict && second.Code != http.StatusAccepted {
		t.Fatalf("second run = %d: %s", second.Code, second.Body.String())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var runs struct {
			Runs []scenarioRunInfo `json:"runs"`
		}
		getJSON(t, h, base, &runs)
		live := false
		for _, r := range runs.Runs {
			if r.State == "running" {
				live = true
			}
		}
		if !live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("runs never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec := postJSON(t, h, base, inline); rec.Code != http.StatusAccepted {
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
	if info := waitFleetSettled(t, s.Handler(), "f1"); info.Status.Ready != 100 {
		t.Fatalf("ready = %d, want 100", info.Status.Ready)
	}
	if rec := do(t, s, "POST", "/api/v1/fleets/f1/scenarios", `{"name":"campus-100"}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run scenario: %d %s", rec.Code, rec.Body.String())
	}
	if info := waitRunSettled(t, s, "f1", "s1"); info.State != "passed" {
		t.Fatalf("campus-100 settled %q: %v", info.State, info.Violations)
	}
	fr, _ := s.openTenant.fleets.get("f1")
	run, _ := fr.runs.get("s1")
	_, result, _ := run.snapshot()
	whole := result.Trace()
	if len(whole) < 400 || result.TraceLen() != len(whole) {
		t.Fatalf("trace has %d events, TraceLen %d", len(whole), result.TraceLen())
	}

	reference := func(pg page) []byte {
		info := runInfoOf(run, false, page{})
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
