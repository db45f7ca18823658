package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"maps"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"xcbc/internal/wal"
	"xcbc/pkg/xcbc"
)

// These tests pin what the store journals: a scenario run's progress as a
// checkpoint every groupCommitAt events that still feeds the replay oracle,
// an exact and spelled-out record count per operation, and an emit that
// never applies a record the log refused.

const campusFleet = `{"name":"campus","members":100,"cluster":"littlefe","nodes":4,"parallelism":4,"workers":8}`

// unprovisioned marks a fleet body whose builds wait for a scenario's
// provision phase; such a fleet never settles on its own.
const unprovisioned = `"provision":false`

// loggedMirror rebuilds the mirror from what dir holds on disk — snapshot
// plus log tail, as openStore does before it materializes anything.
func loggedMirror(t *testing.T, dir string) *mirror {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m := newMirror()
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rec.Records {
		typed, err := decodeRecord(r.Type, r.Data)
		if err != nil {
			t.Fatalf("record %d (%s): %v", r.Seq, r.Type, err)
		}
		typed.apply(m)
	}
	return m
}

// loggedRecords returns the records dir's log holds past its snapshot.
func loggedRecords(t *testing.T, dir string) []wal.Record {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return rec.Records
}

// waitJournaled returns once the store has applied — and therefore logged —
// a deployment's settled record; a build reports its state before its
// watcher journals it.
func waitJournaled(t *testing.T, s *Server, id string) {
	t.Helper()
	st := s.openTenant.store
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st.mu.Lock()
		d := st.m.Deployments[id]
		settled := d != nil && d.State != ""
		st.mu.Unlock()
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: no settled record journaled", id)
		}
	}
}

// crashImages drives one durable campus-100 run on a fleet created from
// fleetBody and copies the DataDir every time the run's journaled cursor
// has moved, for as long as the log holds no settled record: each copy is
// what a crash at that moment leaves on disk. Holding st.mu makes a copy
// consistent, and because the run needs the same lock for each checkpoint
// it cannot get more than one checkpoint past an observation. It returns
// the trace the live run produced.
func crashImages(t *testing.T, fleetBody string, images map[int]string) []byte {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	defer s.Close()
	if rec := do(t, s, "POST", "/api/v1/fleets", fleetBody, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("create fleet: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(fleetBody, unprovisioned) {
		waitFleetSettled(t, s.Handler(), "f1")
	}
	st := s.openTenant.store
	if rec := do(t, s, "POST", "/api/v1/fleets/f1/scenarios", `{"name":"campus-100"}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run scenario: %d %s", rec.Code, rec.Body.String())
	}
	for settled := false; !settled; {
		st.mu.Lock()
		run := st.m.findRun("f1", "s1")
		if settled = run.State != ""; !settled && images[run.Cursor] == "" {
			image := t.TempDir()
			if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
				t.Error(err)
			}
			images[run.Cursor] = image
		}
		st.mu.Unlock()
	}
	state, result, err := recoveredRun(t, s).snapshot()
	if state != "passed" {
		t.Fatalf("campus-100 settled %q: %v", state, err)
	}
	return result.TraceJSONL()
}

// TestReplayOracleAtCheckpoints crashes a live campus-100 run at every
// checkpoint it can catch and recovers each image: the run is replayed and
// verified against the checkpoint the file holds, reproduces the trace the
// live run produced (the golden one, on a fleet the scenario provisions
// itself), and a checkpoint whose hash has one bit flipped is caught.
func TestReplayOracleAtCheckpoints(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// The run emits its events in bursts that never yield the processor;
		// catching it between checkpoints takes a second one.
		t.Skip("observing a run in flight needs two processors")
	}
	for _, tc := range []struct {
		name, fleet string
		golden      bool
	}{
		// Named as the scenario's own fleet spec is: member names are in the trace.
		{"fresh fleet", `{"name":"campus-100","members":100,"cluster":"littlefe","nodes":4,"parallelism":4,"workers":8,` + unprovisioned + `}`, true},
		{"provisioned fleet", campusFleet, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			images := map[int]string{} // journaled cursor -> DataDir copy
			var trace []byte
			var cursors []int
			// One run normally yields every checkpoint; retry while a starved
			// test goroutine has caught fewer than three points of it.
			for attempt := 0; attempt < 20 && len(cursors) < 3; attempt++ {
				trace = crashImages(t, tc.fleet, images)
				cursors = slices.Sorted(maps.Keys(images))
			}
			t.Logf("crash images at journaled cursors %v", cursors)
			last := cursors[len(cursors)-1]
			if last < groupCommitAt {
				t.Fatalf("no image holds a checkpoint (cursors %v)", cursors)
			}
			if tc.golden && !bytes.Equal(trace, goldenTrace(t, "campus-100")) {
				t.Fatal("live trace is not the golden trace")
			}
			// A copy of the newest image with one bit of its recorded hash
			// flipped: apply keeps the last (cursor, hash), so a second record
			// at the same cursor rewrites it. Opening an image recovers it, so
			// the copy is made first.
			flipped := t.TempDir()
			if err := os.CopyFS(flipped, os.DirFS(images[last])); err != nil {
				t.Fatal(err)
			}
			l, _, err := wal.Open(flipped, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendJSON(recScenarioProgress, scenarioProgressRec{
				FleetID: "f1", RunID: "s1", Cursor: last, Hash: prefixHash(trace, last) ^ 1,
			}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			for _, cursor := range cursors {
				// The checkpoint reached the file on its own, not in a queue
				// some later record had to flush.
				got := loggedMirror(t, images[cursor]).findRun("f1", "s1")
				if got.State != "" || got.Cursor != cursor || cursor%groupCommitAt != 0 {
					t.Fatalf("image %d: log holds cursor %d state %q", cursor, got.Cursor, got.State)
				}
				if cursor > 0 && got.Hash != prefixHash(trace, cursor) {
					t.Fatalf("image %d: journaled hash is not the trace's prefix hash", cursor)
				}
				s, rep := openDurable(t, images[cursor])
				if rep.Fleets != 1 || rep.Replayed != 1 || rep.ReplayMismatches != 0 {
					t.Fatalf("image %d: recovery report = %+v, want 1 replayed run with no mismatch", cursor, rep)
				}
				state, result, runErr := recoveredRun(t, s).snapshot()
				if state != "passed" || runErr != nil {
					t.Fatalf("image %d: replayed run settled %q (%v)", cursor, state, runErr)
				}
				if replayed := result.TraceJSONL(); !bytes.Equal(replayed, trace) {
					t.Fatalf("image %d: replayed trace diverged (%d vs %d bytes)", cursor, len(replayed), len(trace))
				}
				s.Close()
			}

			s, rep := openDurable(t, flipped)
			defer s.Close()
			if rep.Replayed != 1 || rep.ReplayMismatches != 1 {
				t.Fatalf("flipped hash: recovery report = %+v, want 1 replay mismatch", rep)
			}
		})
	}
}

// TestRecordsPerOperationPinned spells out what one deployment lifecycle,
// one failed build and one fleet-and-scenario operation journal, and
// requires exactly that on every repetition.
func TestRecordsPerOperationPinned(t *testing.T) {
	t.Run("deployment", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openDurable(t, dir)
		defer s.Close()
		lifecycle := []string{recDeploymentCreated, recDeploymentSettled, recClusterOp, recClusterOp, recDeploymentDeleted}
		var want []string
		for op := 0; op < 3; op++ {
			id := deployReady(t, s, `{"cluster":"littlefe","scheduler":"torque"}`)
			waitJournaled(t, s, id)
			for _, call := range []struct {
				method, path, body string
				want               int
			}{
				{"POST", "/api/v1/clusters/" + id + "/jobs", `{"cores":1,"walltime":"1h"}`, http.StatusCreated},
				{"GET", "/api/v1/clusters/" + id + "/metrics", "", http.StatusOK},
				{"DELETE", "/api/v1/deployments/" + id, "", http.StatusNoContent},
			} {
				if rec := do(t, s, call.method, call.path, call.body, nil); rec.Code != call.want {
					t.Fatalf("%s %s = %d, want %d: %s", call.method, call.path, rec.Code, call.want, rec.Body.String())
				}
			}
			want = append(want, lifecycle...)
		}
		s.Close()
		var got []string
		for _, r := range loggedRecords(t, dir) {
			got = append(got, r.Type)
			// A ready build's settled record carries no journal.
			if r.Type == recDeploymentSettled && bytes.Contains(r.Data, []byte(`"events"`)) {
				t.Errorf("record %d: ready settlement carries a journal: %s", r.Seq, r.Data)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("3 lifecycles journaled\n  %v\nwant\n  %v", got, want)
		}
	})
	t.Run("failed build", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openDurable(t, dir, func(c *Config) {
			c.DeployOptions = []xcbc.Option{xcbc.WithInstallHook(func(string, int) error {
				return errors.New("injected PXE fault")
			})}
		})
		defer s.Close()
		do(t, s, "POST", "/api/v1/deployments", `{"cluster":"littlefe"}`, nil)
		final, live := pollDeployment(t, s, "d1")
		if final.State != "failed" || len(live) == 0 {
			t.Fatalf("settled %q with %d events, want failed with a journal", final.State, len(live))
		}
		waitJournaled(t, s, "d1")
		s.Close()
		records := loggedRecords(t, dir)
		if len(records) != 2 || records[0].Type != recDeploymentCreated || records[1].Type != recDeploymentSettled {
			t.Fatalf("a failed build journaled %d records, want %s then %s", len(records), recDeploymentCreated, recDeploymentSettled)
		}
		var settled depSettledRec
		if err := json.Unmarshal(records[1].Data, &settled); err != nil {
			t.Fatal(err)
		}
		if settled.State != "failed" || settled.Error != final.Error || !slices.Equal(settled.Events, live) {
			t.Fatalf("settled record = %q (%s) with %d events\nwant the live journal: failed (%s), %d events",
				settled.State, settled.Error, len(settled.Events), final.Error, len(live))
		}
	})
	const smallFleet = `{"name":"small","members":4,"nodes":2,"workers":2,` + unprovisioned + `}`
	const smallRun = `{"scenario":{"name":"small","seed":7,"fleet":{"members":4,"nodes":2,"workers":2},"phases":[
		{"kind":"provision"},
		{"kind":"jobs","count":3,"cores":1,"runtime":"5m","walltime":"30m"},
		{"kind":"assert","invariants":[{"name":"all-ready"},{"name":"jobs-conserved"}]}]}}`
	for _, tc := range []struct {
		name, fleet, run string
		ops, events      int
		records          []string
	}{
		{"campus-100", campusFleet, `{"name":"campus-100"}`, 20, 405, []string{
			recFleetCreated, recScenarioStarted,
			recScenarioProgress, recScenarioProgress, recScenarioProgress,
			recScenarioProgress, recScenarioProgress, recScenarioProgress, // floor(405/64) checkpoints
			recScenarioSettled, recFleetProvisioned, recFleetDeleted,
		}},
		{"4 members unprovisioned", smallFleet, smallRun, 3, 12, []string{
			recFleetCreated, recScenarioStarted, recScenarioSettled, recFleetProvisioned, recFleetDeleted,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.ops > 3 {
				tc.ops = 3
			}
			s, _ := openDurable(t, t.TempDir())
			defer s.Close()
			nextSeq := func() uint64 {
				var info storeInfo
				do(t, s, "GET", "/api/v1/store", "", &info)
				return info.NextSeq
			}
			for op := 0; op < tc.ops; op++ {
				before := nextSeq()
				var fl fleetInfo
				if rec := do(t, s, "POST", "/api/v1/fleets", tc.fleet, &fl); rec.Code != http.StatusAccepted {
					t.Fatalf("create fleet: %d %s", rec.Code, rec.Body.String())
				}
				if !strings.Contains(tc.fleet, unprovisioned) {
					waitFleetSettled(t, s.Handler(), fl.ID)
				}
				if rec := do(t, s, "POST", "/api/v1/fleets/"+fl.ID+"/scenarios", tc.run, nil); rec.Code != http.StatusAccepted {
					t.Fatalf("run scenario: %d %s", rec.Code, rec.Body.String())
				}
				// The run reports its state before it journals it; done closes
				// after both.
				fr, _ := s.openTenant.fleets.get(fl.ID)
				run, _ := fr.runs.get("s1")
				<-run.done
				if state, result, err := run.snapshot(); state != "passed" || result.TraceLen() != tc.events {
					t.Fatalf("run settled %q (%v) with %d events, want %d", state, err, result.TraceLen(), tc.events)
				}
				if rec := do(t, s, "DELETE", "/api/v1/fleets/"+fl.ID, "", nil); rec.Code != http.StatusNoContent {
					t.Fatalf("delete fleet: %d %s", rec.Code, rec.Body.String())
				}
				if got := nextSeq() - before; got != uint64(len(tc.records)) {
					t.Fatalf("operation %d journaled %d records, want %d: %v", op, got, len(tc.records), tc.records)
				}
			}
		})
	}
}

// TestEmitAppliesOnlyWhatItLogged poisons the group-commit queue with an
// entry AppendBatch refuses, then makes an acked write: the flush failure
// is reported as a flush failure, the write is still appended, and the
// mirror holds exactly what a reopened DataDir yields.
func TestEmitAppliesOnlyWhatItLogged(t *testing.T) {
	dir := t.TempDir()
	var logged bytes.Buffer
	s, _ := openDurable(t, dir, func(c *Config) { c.Logger = log.New(&logged, "", 0) })
	st := s.openTenant.store
	st.mu.Lock()
	st.queue = append(st.queue, wal.BatchEntry{Type: strings.Repeat("x", 0x10000), Data: []byte("{}")})
	st.mu.Unlock()
	if rec := do(t, s, "POST", "/api/v1/fleets", `{"name":"acked","members":2,"nodes":2,"provision":false}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("create fleet: %d %s", rec.Code, rec.Body.String())
	}
	st.mu.Lock()
	live, err := json.Marshal(st.m)
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if out := logged.String(); !strings.Contains(out, "store: flush before "+recFleetCreated) || strings.Contains(out, "store: append") {
		t.Errorf("log does not name the flush as what failed:\n%s", out)
	}
	onDisk := loggedMirror(t, dir)
	reopened, err := json.Marshal(onDisk)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, reopened) {
		t.Errorf("mirror and DataDir disagree\n live:     %s\n reopened: %s", live, reopened)
	}
	if onDisk.Fleets["f1"] == nil {
		t.Error("the acked fleet.created did not reach the log")
	}

	// A record the log refuses outright is not applied either.
	s2, _ := openDurable(t, dir)
	defer s2.Close()
	st = s2.openTenant.store
	st.emit(strings.Repeat("x", 0x10000), fleetDeletedRec{ID: "f1"})
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.m.Fleets["f1"] == nil {
		t.Error("a record the log refused was applied to the mirror")
	}
}

// TestSettledRecordEncodeMatchesMarshal pins encode to json.Marshal's
// bytes, so the spliced record is what an older binary wrote and reads.
func TestSettledRecordEncodeMatchesMarshal(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	do(t, s, "POST", "/api/v1/fleets", `{"name":"tiny","members":2,"nodes":2,"workers":2}`, nil)
	waitFleetSettled(t, s.Handler(), "f1")
	do(t, s, "POST", "/api/v1/fleets/f1/scenarios", `{"scenario": `+smallScenario+`}`, nil)
	waitRunSettled(t, s, "f1", "s1")
	fr, _ := s.openTenant.fleets.get("f1")
	run, _ := fr.runs.get("s1")
	_, result, _ := run.snapshot()
	real, err := result.ResultJSON()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range []scenarioSettledRec{
		{FleetID: "f1", RunID: "s1", State: "passed", Result: real},
		{FleetID: "f1", RunID: "s1", State: "failed", Error: `violated "<all-ready>" & more`, Result: real},
		{FleetID: "f1", RunID: "s2", State: "error", Error: "replay diverged"},
		{FleetID: "f1", RunID: "s3", State: "passed", Result: json.RawMessage(`{}`)},
	} {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.encode()
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("case %d: encode = %s (%v)\nwant %s", i, got, err, want)
		}
		var back scenarioSettledRec
		if err := json.Unmarshal(got, &back); err != nil || fmt.Sprint(back) != fmt.Sprint(rec) {
			t.Errorf("case %d: round trip = %+v (%v)", i, back, err)
		}
	}
}

// TestTraceHashIsOverMarshalledLines: the rolling hash journaled in
// scenario.progress records is FNV-1a over the trace's JSONL prefix as
// encoding/json writes it. It is computed from an appended encoding now;
// a DataDir written before that must still replay, so the two may never
// differ — not even for strings json escapes.
func TestTraceHashIsOverMarshalledLines(t *testing.T) {
	events := []xcbc.TraceEvent{
		{Seq: 0, Phase: -1, Kind: "scenario.start", Detail: "name=campus-100 seed=42 members=100 cluster=littlefe"},
		{Seq: 1, Phase: 0, Kind: "provision.failed", Member: "f-001", Detail: `core: "quoted" <html> & \ back`},
		{Seq: 2, Phase: 3, Kind: "fault.quarantine", Member: "f-002", Node: "compute-0-3", Detail: "tab\there \xff"},
		{Seq: 3, Phase: 4, Kind: "assert.ok"},
	}
	th, ref := newTraceHash(), fnv.New64a()
	for i, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		ref.Write(append(line, '\n'))
		cursor, sum := th.add(ev)
		if cursor != i+1 || sum != ref.Sum64() {
			t.Fatalf("after event %d: cursor %d hash %#x, want %d %#x", i, cursor, sum, i+1, ref.Sum64())
		}
	}
}
