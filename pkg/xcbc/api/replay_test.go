package api

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"xcbc/internal/wal"
	"xcbc/pkg/xcbc"
)

// goldenTrace loads a builtin scenario's committed golden trace from the
// scenario engine's testdata.
func goldenTrace(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "internal", "scenario", "testdata", "scenario-"+name+".golden"))
	if err != nil {
		t.Fatalf("golden trace: %v", err)
	}
	return data
}

// prefixHash computes the rolling FNV-1a digest the store records, over
// the first k lines of a JSONL trace — what a server that crashed after
// journaling k progress records would have on disk.
func prefixHash(trace []byte, k int) uint64 {
	h := fnv.New64a()
	lines := bytes.SplitAfter(trace, []byte("\n"))
	for i := 0; i < k; i++ {
		h.Write(lines[i])
	}
	return h.Sum64()
}

// synthesizeCrash writes the WAL a server would leave behind if it died
// mid-scenario: the fleet record (unprovisioned — the scenario's provision
// phase owns the builds), the run start with the full scenario document,
// and one progress record at cursor with the given trace-prefix hash.
func synthesizeCrash(t *testing.T, dir string, sc *xcbc.Scenario, cursor int, hash uint64) {
	t.Helper()
	spec := sc.FleetSpec()
	doc, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	created := time.Date(2015, 9, 8, 12, 0, 0, 0, time.UTC)
	records := []struct {
		typ string
		v   any
	}{
		{recFleetCreated, fleetCreatedRec{
			ID: "f1", Name: spec.Name, Created: created, Provisioned: false,
			Req: createFleetRequest{
				Name: spec.Name, Members: spec.Members, Cluster: spec.Cluster,
				Nodes: spec.Nodes, Scheduler: spec.Scheduler,
				Parallelism: spec.Parallelism, Retries: spec.Retries, Workers: spec.Workers,
			},
		}},
		{recScenarioStarted, scenarioStartedRec{
			FleetID: "f1", RunID: "s1", Name: sc.Name(), Scenario: doc, Created: created,
		}},
		{recScenarioProgress, scenarioProgressRec{
			FleetID: "f1", RunID: "s1", Cursor: cursor, Hash: hash,
		}},
	}
	for _, r := range records {
		if _, err := l.AppendJSON(r.typ, r.v); err != nil {
			t.Fatalf("append %s: %v", r.typ, err)
		}
	}
}

// recoveredRun digs the single scenario run out of a recovered server.
func recoveredRun(t *testing.T, s *Server) *scenarioRun {
	t.Helper()
	fr, ok := s.openTenant.fleets.get("f1")
	if !ok {
		t.Fatal("fleet f1 not recovered")
	}
	run, ok := fr.runs.get("s1")
	if !ok || fr.runs.len() != 1 {
		t.Fatalf("recovered %d runs (s1 present: %v), want exactly s1", fr.runs.len(), ok)
	}
	return run
}

// TestReplayOracleGoldenTraces is the durability subsystem's end-to-end
// oracle: for each builtin scenario, synthesize the WAL of a server that
// crashed partway through the run, recover, and require the replayed run
// to reproduce the committed golden trace byte-for-byte — with the rolling
// prefix hash verified at the recorded cursor along the way.
func TestReplayOracleGoldenTraces(t *testing.T) {
	for _, name := range xcbc.BuiltinScenarios() {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name != "rolling-update" {
				t.Skip("large fleet replay skipped in short mode")
			}
			golden := goldenTrace(t, name)
			total := bytes.Count(golden, []byte("\n"))
			cursor := total / 2 // the crash landed mid-run
			sc, err := xcbc.BuiltinScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			synthesizeCrash(t, dir, sc, cursor, prefixHash(golden, cursor))

			s, rep := openDurable(t, dir)
			defer s.Close()
			if rep.Fleets != 1 || rep.Replayed != 1 || rep.ReplayMismatches != 0 {
				t.Fatalf("recovery report = %+v, want 1 replayed run with no mismatch", rep)
			}
			run := recoveredRun(t, s)
			state, result, runErr := run.snapshot()
			if state != "passed" || runErr != nil {
				t.Fatalf("replayed run settled %q (%v), want passed", state, runErr)
			}
			if trace := result.TraceJSONL(); !bytes.Equal(trace, golden) {
				t.Fatalf("replayed trace diverged from golden (%d vs %d bytes)", len(trace), len(golden))
			}

			// The replay settled and journaled its result: a second recovery
			// restores the run without re-running the scenario.
			s.Close()
			s2, rep2 := openDurable(t, dir)
			defer s2.Close()
			if rep2.Runs != 1 || rep2.Replayed != 0 {
				t.Fatalf("second recovery = %+v, want restored (not replayed) run", rep2)
			}
			run2 := recoveredRun(t, s2)
			_, result2, _ := run2.snapshot()
			if !bytes.Equal(result2.TraceJSONL(), golden) {
				t.Fatal("restored trace diverged from golden after second recovery")
			}
		})
	}
}

// TestReplayDivergenceDetected flips one bit of the recorded hash: the
// replay regenerates the true trace, fails verification at the cursor, and
// the run settles "error" instead of presenting an unverified trace.
func TestReplayDivergenceDetected(t *testing.T) {
	golden := goldenTrace(t, "rolling-update")
	cursor := bytes.Count(golden, []byte("\n")) / 2
	sc, err := xcbc.BuiltinScenario("rolling-update")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	synthesizeCrash(t, dir, sc, cursor, prefixHash(golden, cursor)^1)

	s, rep := openDurable(t, dir)
	defer s.Close()
	if rep.Replayed != 1 || rep.ReplayMismatches != 1 {
		t.Fatalf("recovery report = %+v, want 1 replay mismatch", rep)
	}
	run := recoveredRun(t, s)
	state, _, runErr := run.snapshot()
	if state != "error" || runErr == nil {
		t.Fatalf("diverged run settled %q (%v), want error", state, runErr)
	}
	var info scenarioRunInfo
	if rec := do(t, s, "GET", "/api/v1/fleets/f1/scenarios/s1", "", &info); rec.Code != 200 {
		t.Fatalf("GET diverged run: %d", rec.Code)
	}
	if info.State != "error" || info.Error == "" {
		t.Fatalf("diverged run info = %+v", info)
	}
}

// TestOpenRepairsTornTail garbles the live segment's tail — the on-disk
// state a power cut mid-write leaves — and verifies Open repairs it: the
// torn frame is dropped, the report says so, and the records before the
// tear recover intact.
func TestOpenRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openDurable(t, dir)
	rec := do(t, s1, "POST", "/api/v1/fleets", `{"name":"torn","members":2,"nodes":2,"workers":2,"provision":false}`, nil)
	if rec.Code != 202 {
		t.Fatalf("create fleet: %d %s", rec.Code, rec.Body.String())
	}
	s1.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment found: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x2a\x00\x00\x00torn-frame-garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rep := openDurable(t, dir)
	defer s2.Close()
	if !rep.Repaired || rep.DroppedBytes == 0 {
		t.Fatalf("recovery report = %+v, want repaired tail", rep)
	}
	if rep.Fleets != 1 {
		t.Fatalf("fleet lost to the torn tail: %+v", rep)
	}
	var fl fleetInfo
	if rc := do(t, s2, "GET", "/api/v1/fleets/f1", "", &fl); rc.Code != 200 {
		t.Fatalf("recovered fleet: %d", rc.Code)
	}
	if fl.Name != "torn" {
		t.Fatalf("recovered fleet = %+v", fl)
	}
}

// TestCrashRestartSeeds drives many seeded create/crash/recover cycles —
// the API-level companion to internal/wal's frame-level crash injection.
// Every recovery must succeed with invariants intact: recovered resources
// match what was journaled, and no WAL read ever surfaces corruption.
func TestCrashRestartSeeds(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			deps := 1 + seed%3
			s1, _ := openDurable(t, dir, func(c *Config) { c.SnapshotEvery = 2 + seed })
			for i := 0; i < deps; i++ {
				body := fmt.Sprintf(`{"cluster":"littlefe","parallelism":%d}`, 1+seed%4)
				if rec := do(t, s1, "POST", "/api/v1/deployments", body, nil); rec.Code != 202 {
					t.Fatalf("create %d: %d", i, rec.Code)
				}
			}
			// Let an arbitrary, seed-dependent amount of journal traffic land
			// before the crash; some builds settle, some do not.
			time.Sleep(time.Duration(seed) * 2 * time.Millisecond)
			s1.Close()

			s2, rep := openDurable(t, dir)
			if rep.Deployments != deps {
				t.Fatalf("recovered %d deployments, want %d (report %+v)", rep.Deployments, deps, rep)
			}
			if rep.Rebuilt+rep.Archived+rep.Interrupted != deps {
				t.Fatalf("recovery did not reconcile every deployment: %+v", rep)
			}
			for i := 1; i <= deps; i++ {
				var info deploymentInfo
				id := fmt.Sprintf("d%d", i)
				if rec := do(t, s2, "GET", "/api/v1/deployments/"+id, "", &info); rec.Code != 200 {
					t.Fatalf("GET %s: %d", id, rec.Code)
				}
				if info.State != "ready" && info.State != "failed" {
					t.Fatalf("%s recovered in non-terminal state %q", id, info.State)
				}
			}
			s2.Close()

			// And once more: the post-recovery log must itself recover.
			s3, rep3 := openDurable(t, dir)
			if rep3.Deployments != deps || rep3.Interrupted != 0 {
				t.Fatalf("third open = %+v, want %d settled deployments", rep3, deps)
			}
			s3.Close()
		})
	}
}
