package api

// Wire and disk pins. testdata/pin.golden and the datadir-parent fixture
// were written at commit c9f0cff — the parent of the registry/typed-store
// refactor — so these tests fail on any drift in response bytes (envelope
// key order included: bench/work parses list bodies by first occurrence),
// record payloads or snapshot JSON. A live server and one recovered from
// the fixture answer with the same bytes, so one golden serves both.

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"xcbc/pkg/xcbc"
)

// regenDataDir rewrites the committed DataDir fixture from the running
// code. Only meaningful at a commit whose disk format is the reference;
// follow with -update to re-pin the recovered bodies.
var regenDataDir = flag.Bool("regen-datadir", false, "rewrite testdata/datadir-parent from current code")

const pinDataDir = "testdata/datadir-parent"

// pinRoutes are the six paginated list routes on a few cursor/limit
// windows, then the per-resource bodies that recovery rebuilds.
var pinRoutes = []string{
	"/api/v1/deployments",
	"/api/v1/deployments?limit=1",
	"/api/v1/deployments?cursor=1&limit=2",
	"/api/v1/clusters",
	"/api/v1/clusters?cursor=2",
	"/api/v1/fleets",
	"/api/v1/fleets?limit=1",
	"/api/v1/fleets/f1/scenarios",
	"/api/v1/fleets/f1/scenarios?cursor=1",
	"/api/v1/scenarios",
	"/api/v1/scenarios?cursor=1&limit=1",
	"/api/v1/campaigns",
	"/api/v1/campaigns?cursor=1",
	"/api/v1/deployments/d1?limit=4",
	"/api/v1/deployments/d2?cursor=1&limit=3",
	"/api/v1/clusters/d1/jobs",
	"/api/v1/fleets/f1",
	"/api/v1/fleets/f1/scenarios/s1?cursor=2&limit=3",
	"/api/v1/campaigns/c1",
}

// pinConfig is the fixed-clock configuration both pins run under. The
// install hook fails builds only while *failing is set, so one deployment
// of the population settles failed.
func pinConfig(failing *atomic.Bool) Config {
	now := time.Date(2015, 9, 8, 12, 0, 0, 0, time.UTC)
	return Config{
		Clock: func() time.Time { return now },
		DeployOptions: []xcbc.Option{xcbc.WithInstallHook(func(string, int) error {
			if failing.Load() {
				return fmt.Errorf("injected PXE fault")
			}
			return nil
		})},
		SnapshotEvery: 48, // one snapshot between the population's halves
	}
}

// pinPopulate drives the small fixed population in two halves, so the
// fixture's snapshot (first half) and log tail (second half) each hold
// every record type: d1 ready with day-2 ops, d2 failed, f1 with a settled
// run, c1 settled; then d3 ready on the xnit path, d4 and f3 created and
// deleted (ID gaps at the top of both sequences), more ops on d1, a second
// run on f1, f2 unprovisioned, c2 settled.
func pinPopulate(t *testing.T, s *Server, failing *atomic.Bool) {
	t.Helper()
	call := func(method, path, body string, want int) {
		t.Helper()
		if rec := do(t, s, method, path, body, nil); rec.Code != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, want, rec.Body.String())
		}
	}
	deploy := func(id, body, want string) {
		t.Helper()
		call("POST", "/api/v1/deployments", body, http.StatusAccepted)
		if final, _ := pollDeployment(t, s, id); final.State != want {
			t.Fatalf("%s settled %q, want %q", id, final.State, want)
		}
	}
	scenario := func(run string) {
		t.Helper()
		call("POST", "/api/v1/fleets/f1/scenarios", `{"scenario": `+smallScenario+`}`, http.StatusAccepted)
		waitRunSettled(t, s, "f1", run)
	}
	campaign := func(id, body string) {
		t.Helper()
		call("POST", "/api/v1/campaigns", body, http.StatusAccepted)
		waitCampaign(t, s, id)
	}

	deploy("d1", `{"cluster":"littlefe","scheduler":"torque"}`, "ready")
	call("POST", "/api/v1/clusters/d1/jobs", `{"name":"hpl","user":"alice","cores":4,"walltime":"2h","runtime":"20m"}`, http.StatusCreated)
	call("POST", "/api/v1/clusters/d1/jobs", `{"name":"wrf","user":"bob","cores":2,"walltime":"1h"}`, http.StatusCreated)
	call("DELETE", "/api/v1/clusters/d1/jobs/2", "", http.StatusOK)
	call("POST", "/api/v1/clusters/d1/advance", `{"duration":"30m"}`, http.StatusOK)
	failing.Store(true)
	deploy("d2", `{"cluster":"littlefe"}`, "failed")
	failing.Store(false)
	call("POST", "/api/v1/fleets", `{"name":"tiny","members":2,"nodes":2,"workers":2}`, http.StatusAccepted)
	waitFleetSettled(t, s.Handler(), "f1")
	scenario("s1")
	campaign("c1", `{"seeds":2,"start_seed":1}`)

	deploy("d3", `{"cluster":"limulus","path":"xnit","scheduler":"torque","profiles":["compilers"]}`, "ready")
	deploy("d4", `{"cluster":"littlefe","node_count":3}`, "ready")
	call("DELETE", "/api/v1/deployments/d4", "", http.StatusNoContent)
	call("GET", "/api/v1/clusters/d1/metrics", "", http.StatusOK)
	call("GET", "/api/v1/clusters/d1/updates?policy=notify", "", http.StatusOK)
	call("POST", "/api/v1/clusters/d1/jobs", `{"name":"namd","user":"carol","cores":1}`, http.StatusCreated)
	scenario("s2")
	call("POST", "/api/v1/fleets", `{"name":"idle","members":3,"nodes":1,"provision":false}`, http.StatusAccepted)
	call("POST", "/api/v1/fleets", `{"name":"gone","members":1,"nodes":1}`, http.StatusAccepted)
	waitFleetSettled(t, s.Handler(), "f3")
	call("DELETE", "/api/v1/fleets/f3", "", http.StatusNoContent)
	campaign("c2", `{"seeds":1,"start_seed":7,"workers":1}`)
}

// pinBodies renders every pinned route as "GET <path>\n<raw body>".
func pinBodies(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, path := range pinRoutes {
		rec := do(t, s, "GET", path, "", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
		}
		fmt.Fprintf(&buf, "GET %s\n%s", path, rec.Body.Bytes())
	}
	return buf.Bytes()
}

func pinCompare(t *testing.T, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "pin.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("response bytes drifted from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

// TestWirePinnedToParent replays the fixed population on a memory-only
// server and compares every pinned body byte for byte.
func TestWirePinnedToParent(t *testing.T) {
	var failing atomic.Bool
	s := New(pinConfig(&failing))
	defer s.Close()
	pinPopulate(t, s, &failing)
	pinCompare(t, pinBodies(t, s))
}

// TestDiskPinnedToParent opens a copy of the parent-written DataDir and
// requires the recovered server to answer with the parent's bytes.
func TestDiskPinnedToParent(t *testing.T) {
	var failing atomic.Bool
	cfg := pinConfig(&failing)
	if *regenDataDir {
		if err := os.RemoveAll(pinDataDir); err != nil {
			t.Fatal(err)
		}
		cfg.DataDir = pinDataDir
		s, _, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pinPopulate(t, s, &failing)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cfg.DataDir = t.TempDir()
	if err := os.CopyFS(cfg.DataDir, os.DirFS(pinDataDir)); err != nil {
		t.Fatal(err)
	}
	s, rep, err := Open(cfg)
	if err != nil {
		t.Fatalf("opening a copy of the parent-written DataDir: %v", err)
	}
	defer s.Close()
	if rep.SnapshotSeq == 0 || rep.Records == 0 {
		t.Fatalf("fixture should exercise both snapshot load and log replay: %+v", rep)
	}
	if rep.Deployments != 3 || rep.Rebuilt != 2 || rep.Archived != 1 || rep.Fleets != 2 || rep.Runs != 2 || rep.Campaigns != 2 {
		t.Fatalf("recovery report = %+v", rep)
	}
	pinCompare(t, pinBodies(t, s))

	// IDs continue past the deleted d4, the highest-numbered deployment.
	var next deploymentInfo
	if rec := do(t, s, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, &next); rec.Code != http.StatusAccepted || next.ID != "d5" {
		t.Fatalf("first create after recovery = %d %q, want 202 d5", rec.Code, next.ID)
	}
}
