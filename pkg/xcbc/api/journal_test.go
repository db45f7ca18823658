package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/fnv"
	"log"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xcbc/internal/scenario"
	"xcbc/internal/wal"
	"xcbc/pkg/xcbc"
)

// These tests pin what the store journals: a scenario run's progress as a
// checkpoint every checkpointEvery events that still feeds the replay
// oracle, an exact and spelled-out record count per operation, an emit that
// is on the log when it returns and never applies a record the log refused,
// and a settled state no client reads before it is journaled.

const campusFleet = `{"name":"campus","members":100,"cluster":"littlefe","nodes":4,"parallelism":4,"workers":8}`

// unprovisioned marks a fleet body whose builds wait for a scenario's
// provision phase; such a fleet never settles on its own.
const unprovisioned = `"provision":false`

// loggedMirror rebuilds the mirror from what dir holds on disk — snapshot
// plus log tail, as store.open does before it materializes anything.
func loggedMirror(t *testing.T, dir string) *mirror {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m := newMirror()
	if rec.Snapshot != nil {
		if err := decodeJSON(rec.Snapshot, m); err != nil {
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

// crashImages drives one durable campus-100 run on a fleet created from
// fleetBody, imaging the DataDir at every record, and returns the images
// taken right after the run's started record and each of its checkpoints,
// by the cursor the log then holds, and the trace the live run produced.
func crashImages(t *testing.T, fleetBody string) (map[int]string, []byte) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	defer s.Close()
	if rec := do(t, s, "POST", "/api/v1/fleets", fleetBody, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("create fleet: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(fleetBody, unprovisioned) {
		awaitSettled[fleetInfo](t, s, "", "/api/v1/fleets/f1")
	}
	logged := logCrashes(t, s.openTenant.store, dir)
	if rec := do(t, s, "POST", "/api/v1/fleets/f1/scenarios", `{"name":"campus-100"}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run scenario: %d %s", rec.Code, rec.Body.String())
	}
	awaitSettled[scenarioRunInfo](t, s, "", "/api/v1/fleets/f1/scenarios/s1")
	state, result, err := settled(s, recoveredRun(t, s))
	if state != "passed" {
		t.Fatalf("campus-100 settled %q: %v", state, err)
	}
	atRecord(s.openTenant.store, nil) // orders the copies before these reads
	images, cursor := map[int]string{}, 0
	for i, typ := range logged.types {
		if typ == recScenarioProgress {
			cursor += checkpointEvery
		} else if typ != recScenarioStarted {
			continue
		}
		images[cursor] = logged.images[i]
	}
	return images, result.TraceJSONL()
}

// TestReplayOracleAtCheckpoints crashes a live campus-100 run at every
// checkpoint, in one run, and recovers each image: the run is replayed and
// verified against the checkpoint the file holds, reproduces the trace the
// live run produced (the golden one, on a fleet the scenario provisions
// itself), and a checkpoint whose hash has one bit flipped is caught.
func TestReplayOracleAtCheckpoints(t *testing.T) {
	for _, tc := range []struct {
		name, fleet string
		golden      bool
	}{
		// Named as the scenario's own fleet spec is: member names are in the trace.
		{"fresh fleet", `{"name":"campus-100","members":100,"cluster":"littlefe","nodes":4,"parallelism":4,"workers":8,` + unprovisioned + `}`, true},
		{"provisioned fleet", campusFleet, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			images, trace := crashImages(t, tc.fleet) // journaled cursor -> DataDir copy
			cursors := slices.Sorted(maps.Keys(images))
			t.Logf("crash images at journaled cursors %v", cursors)
			var want []int
			for c := 0; c <= bytes.Count(trace, []byte("\n")); c += checkpointEvery {
				want = append(want, c)
			}
			if !slices.Equal(cursors, want) {
				t.Fatalf("imaged cursors %v, want every checkpoint %v", cursors, want)
			}
			last := cursors[len(cursors)-1]
			if last < checkpointEvery {
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
				// The checkpoint reached the file on its own, before the run
				// went on: no later record had to carry it there.
				got := loggedMirror(t, images[cursor]).Fleets["f1"].run("s1")
				if got.State != "" || got.Cursor != cursor || cursor%checkpointEvery != 0 {
					t.Fatalf("image %d: log holds cursor %d state %q", cursor, got.Cursor, got.State)
				}
				if cursor > 0 && got.Hash != prefixHash(trace, cursor) {
					t.Fatalf("image %d: journaled hash is not the trace's prefix hash", cursor)
				}
				s, rep := openDurable(t, images[cursor])
				if rep.Fleets != 1 || rep.Replayed != 1 || rep.ReplayMismatches != 0 {
					t.Fatalf("image %d: recovery report = %+v, want 1 replayed run with no mismatch", cursor, rep)
				}
				state, result, runErr := settled(s, recoveredRun(t, s))
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
		// The metrics read journals nothing: only the submit is an op.
		lifecycle := []string{recDeploymentCreated, recDeploymentSettled, recClusterOp, recDeploymentDeleted}
		var want []string
		for op := 0; op < 3; op++ {
			id := deployReady(t, s, `{"cluster":"littlefe","scheduler":"torque"}`)
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
					awaitSettled[fleetInfo](t, s, "", "/api/v1/fleets/"+fl.ID)
				}
				if rec := do(t, s, "POST", "/api/v1/fleets/"+fl.ID+"/scenarios", tc.run, nil); rec.Code != http.StatusAccepted {
					t.Fatalf("run scenario: %d %s", rec.Code, rec.Body.String())
				}
				// The run journals its outcome before it reports it.
				awaitSettled[scenarioRunInfo](t, s, "", "/api/v1/fleets/"+fl.ID+"/scenarios/s1")
				if state, result, err := settled(s, runRow(s, fl.ID, "s1")); state != "passed" || result.TraceLen() != tc.events {
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

// TestEmitAppliesOnlyWhatItLogged emits every case of recordCases, all 15
// record types among them: each emit is one record on the log by the time
// it returns, and the mirror then holds exactly what a reopened DataDir
// yields. A record the log refuses is not applied.
func TestEmitAppliesOnlyWhatItLogged(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	st := s.openTenant.store
	types := map[string]bool{}
	for _, tc := range recordCases() {
		before := st.log.Stats().NextSeq
		st.emit(tc.typ, tc.rec)
		if got := st.log.Stats().NextSeq - before; got != 1 {
			t.Errorf("%s: emitting %s advanced the log by %d records, want 1", tc.name, tc.typ, got)
		}
		types[tc.typ] = true
	}
	if len(types) != 15 {
		t.Errorf("emitted %d record types, want all 15", len(types))
	}
	st.mu.Lock()
	live, err := json.Marshal(st.m)
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	reopened, err := json.Marshal(loggedMirror(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, reopened) {
		t.Errorf("mirror and DataDir disagree\n live:     %s\n reopened: %s", live, reopened)
	}

	// A record the log refuses outright is not applied.
	var logged bytes.Buffer
	s2, _ := openDurable(t, dir, func(c *Config) { c.Logger = log.New(&logged, "", 0) })
	defer s2.Close()
	st = s2.openTenant.store
	refused := strings.Repeat("x", 0x10000)
	st.emit(refused, fleetDeletedRec{ID: "f2"})
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.m.Fleets["f2"] == nil {
		t.Error("a record the log refused was applied to the mirror")
	}
	if !strings.Contains(logged.String(), "store: append "+refused) {
		t.Errorf("the refused append was not logged:\n%.200s", logged.String())
	}
}

// TestSettledOnlyOnceJournaled parks a deployment's build watcher, a small
// scenario run and a one-seed campaign at the stop point, each with a
// record logged but not yet applied — the build's and the run's settlement,
// the campaign's one outcome. Until it is applied a client still reads each
// in flight: a deployment building, its cluster 409 and its event stream
// without a terminal frame.
func TestSettledOnlyOnceJournaled(t *testing.T) {
	for _, tc := range []struct {
		name, fleet, create, body, get, park string
		inflight, final                      string
	}{
		{"deployment", "", "/api/v1/deployments", `{"cluster":"littlefe"}`, "/api/v1/deployments/d1", recDeploymentSettled, "building", "ready"},
		{"scenario run", `{"name":"tiny","members":2,"nodes":2,"workers":2,"provision":false}`,
			"/api/v1/fleets/f1/scenarios", `{"scenario": ` + smallScenario + `}`, // under checkpointEvery events
			"/api/v1/fleets/f1/scenarios/s1", recScenarioSettled, "running", "passed"},
		{"campaign", "", "/api/v1/campaigns", `{"seeds":1,"workers":1}`, "/api/v1/campaigns/c1", recCampaignSeed, "running", "passed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := openDurable(t, t.TempDir())
			defer s.Close()
			if tc.fleet != "" {
				do(t, s, "POST", "/api/v1/fleets", tc.fleet, nil)
			}
			st := s.openTenant.store
			parked, release := parkAt(st, tc.park)
			defer release() // before Close, which waits for the parked task
			if rec := do(t, s, "POST", tc.create, tc.body, nil); rec.Code != http.StatusAccepted {
				t.Fatalf("POST %s: %d %s", tc.create, rec.Code, rec.Body.String())
			}
			var seq uint64
			select {
			case seq = <-parked:
			case <-time.After(time.Minute):
				t.Fatalf("no %s record was logged", tc.park)
			}
			type settledInfo struct {
				State     string `json:"state"`
				Completed int    `json:"completed"`
			}
			var info settledInfo
			do(t, s, "GET", tc.get, "", &info)
			var clusterCode int
			var early string
			streamed := make(chan string, 1)
			if tc.park == recDeploymentSettled {
				clusterCode = do(t, s, "GET", "/api/v1/clusters/d1", "", nil).Code
				go func() {
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", tc.get+"/events", nil))
					streamed <- rec.Body.String()
				}()
				select {
				case early = <-streamed:
				case <-time.After(50 * time.Millisecond):
				}
			}
			release()
			if info.State != tc.inflight || info.Completed != 0 {
				t.Fatalf("with its %s record unapplied, GET %s = %+v, want %s with nothing completed", tc.park, tc.get, info, tc.inflight)
			}
			if tc.park == recDeploymentSettled {
				if clusterCode != http.StatusConflict {
					t.Errorf("with its record unapplied, GET /api/v1/clusters/d1 = %d, want 409", clusterCode)
				}
				if early != "" {
					t.Errorf("with its record unapplied, the event stream ended:\n%s", early)
				}
			}
			info = awaitSettled[settledInfo](t, s, "", tc.get)
			if info.State != tc.final || st.log.Stats().NextSeq <= seq {
				t.Fatalf("settled %q; the log ends before the parked record %d", info.State, seq)
			}
			if tc.park == recDeploymentSettled && early == "" {
				if body := <-streamed; !strings.HasSuffix(body, "event: state\ndata: {\"state\":\"ready\"}\n\n") {
					t.Errorf("the event stream did not end on the journaled settlement:\n%s", body)
				}
			}
		})
	}
}

// atRecord sets st's stop point: fn runs under st.mu each time a record is
// logged, before the mirror applies it.
func atRecord(st *store, fn func(seq uint64, typ string)) {
	st.mu.Lock()
	st.appended = fn
	st.mu.Unlock()
}

// parkAt parks the first task to log a record of type typ at st's stop
// point, holding st.mu. The returned channel yields the record's seq once it
// is parked; release lets it go on, and may be called more than once.
func parkAt(st *store, typ string) (<-chan uint64, func()) {
	parked, release := make(chan uint64, 1), make(chan struct{})
	done := false
	atRecord(st, func(seq uint64, got string) {
		if got == typ && !done {
			done = true
			parked <- seq
			<-release
		}
	})
	return parked, sync.OnceFunc(func() { close(release) })
}

// crashLog is what one store logged while it ran: each record's type, and
// a copy of the store's directory taken at the stop point right after the
// record was appended — what a crash at that record leaves on disk.
type crashLog struct {
	types, images []string
}

// logCrashes records st's log, whose directory is dir, into a crashLog:
// read it once atRecord or Close has taken st.mu after the last record.
func logCrashes(t *testing.T, st *store, dir string) *crashLog {
	cl, root := &crashLog{}, t.TempDir()
	atRecord(st, func(_ uint64, typ string) {
		image := filepath.Join(root, strconv.Itoa(len(cl.images)))
		if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
			t.Error(err) // on the emitting goroutine, not the test's
		}
		cl.types, cl.images = append(cl.types, typ), append(cl.images, image)
	})
	return cl
}

// TestSettledRecordEncodeMatchesMarshal pins encode to json.Marshal's
// bytes, so the spliced record is what an older binary wrote and reads.
func TestSettledRecordEncodeMatchesMarshal(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	do(t, s, "POST", "/api/v1/fleets", `{"name":"tiny","members":2,"nodes":2,"workers":2}`, nil)
	awaitSettled[fleetInfo](t, s, "", "/api/v1/fleets/f1")
	do(t, s, "POST", "/api/v1/fleets/f1/scenarios", `{"scenario": `+smallScenario+`}`, nil)
	awaitSettled[scenarioRunInfo](t, s, "", "/api/v1/fleets/f1/scenarios/s1")
	_, real, _ := settled(s, runRow(s, "f1", "s1"))
	for i, rec := range []scenarioSettledRec{
		{FleetID: "f1", RunID: "s1", State: "passed", Result: real},
		{FleetID: "f1", RunID: "s1", State: "failed", Error: `violated "<all-ready>" & more`, Result: real},
		{FleetID: "f1", RunID: "s2", State: "error", Error: "replay diverged"},
		{FleetID: "f1", RunID: "s3", State: "passed", Result: scenarioResult(`{}`)},
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
		if err := json.Unmarshal(got, &back); err != nil {
			t.Errorf("case %d: decode: %v", i, err)
		}
		if again, err := back.encode(); err != nil || !bytes.Equal(again, got) {
			t.Errorf("case %d: round trip = %s (%v)", i, again, err)
		}
	}
}

// scenarioResult decodes a settled result from its journaled JSON.
func scenarioResult(doc string) *xcbc.ScenarioResult {
	var r xcbc.ScenarioResult
	if err := json.Unmarshal([]byte(doc), &r); err != nil {
		panic(err)
	}
	return &r
}

// TestRecordsRoundTrip decodes what emit would log for each of the 15
// record types back into the value it was encoded from. The request types
// drop their zero fields on the way, so the cases pin the distinctions that
// must survive: "rolls":[] (no optional rolls) against an absent rolls (the
// defaults), "provision":false against an absent provision (true), and a
// job submitted with zero cores.
func TestRecordsRoundTrip(t *testing.T) {
	for _, tc := range append(recordCases(), summaryCases()...) {
		data, err := encodeRecord(tc.rec)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if !bytes.Contains(data, []byte(tc.has)) || bytes.Contains(data, []byte(tc.lacks)) {
			t.Errorf("%s: payload %s should carry %s and not %s", tc.name, data, tc.has, tc.lacks)
		}
		decoded, err := decodeRecord(tc.typ, data)
		if err != nil {
			t.Fatalf("%s: decodeRecord(%s, %s): %v", tc.name, tc.typ, data, err)
		}
		if got := reflect.ValueOf(decoded).Elem().Interface(); !reflect.DeepEqual(got, tc.rec) {
			t.Errorf("%s: round trip through %s\n got: %#v\nwant: %#v", tc.name, data, got, tc.rec)
		}
	}
}

// recordCase is one record emit would log, with a key its payload must
// carry and one it must not.
type recordCase struct {
	name, typ  string
	rec        record
	has, lacks string
}

// summaryCases are the records that carry a ready deployment's summary and
// the compat counts an update that applied packages left.
func summaryCases() []recordCase {
	at := time.Date(2015, 9, 8, 12, 0, 0, 0, time.UTC)
	return []recordCase{
		{"settled ready", recDeploymentSettled, depSettledRec{ID: "d1", State: "ready", Summary: &depSummary{Scheduler: "torque",
			PackagesInstalled: 769, InstallDuration: "1h6m37s", Quarantined: []string{"compute-0-3"}, CompatPassed: 44, CompatTotal: 45, NextCursor: 8}},
			`"summary":{"scheduler":"torque"`, `"events"`},
		{"applied updates", recClusterOp, clusterOpRec{ID: "d3", Op: "updates", Policy: "auto-apply", At: at, CompatPassed: 19, CompatTotal: 34},
			`"compat_passed":19,"compat_total":34`, `"job"`},
	}
}

// recordCases covers each of the 15 record types at least once.
func recordCases() []recordCase {
	no, yes := false, true
	at := time.Date(2015, 9, 8, 12, 0, 0, 0, time.UTC)
	return []recordCase{
		{"no optional rolls", recDeploymentCreated, depCreatedRec{ID: "d1", Path: "xcbc", Created: at, Cluster: "LittleFe", Site: "IU", Nodes: 6,
			Req: createDeploymentRequest{Cluster: "littlefe", Rolls: []string{}}}, `"rolls":[]`, `"profiles"`},
		{"default rolls", recDeploymentCreated, depCreatedRec{ID: "d2", Path: "xnit", Created: at, Cluster: "Limulus", Site: "Tuskegee", Nodes: 4,
			Req: createDeploymentRequest{Cluster: "limulus", Path: "xnit", Scheduler: "slurm", Profiles: []string{"compilers"}, NodeCount: 3}}, `"profiles"`, `"rolls"`},
		{"every request field", recDeploymentCreated, depCreatedRec{ID: "d3", Path: "xcbc", Created: at, Cluster: "LittleFe", Site: "IU", Nodes: 6,
			Req: createDeploymentRequest{Cluster: "littlefe", Path: "xcbc", Scheduler: "torque", Rolls: []string{"hpc"}, NodeCount: 5, Parallelism: 2, Retries: 1}}, `"retries":1`, `"profiles"`},
		{"event", recDeploymentEvent, depEventRec{ID: "d1", Event: eventInfo{Seq: 1, Stage: "compute", Node: "compute-0-1", Elapsed: "2s"}}, `"event"`, `"packages"`},
		{"settled failed", recDeploymentSettled, depSettledRec{ID: "d1", State: "failed", Error: "injected PXE fault",
			Events: []eventInfo{{Seq: 0, Stage: "frontend", Packages: 3, Elapsed: "1s"}}}, `"events"`, `"node"`},
		{"deleted", recDeploymentDeleted, depDeletedRec{ID: "d1"}, `"id"`, `"state"`},
		{"zero cores", recClusterOp, clusterOpRec{ID: "d1", Op: "job.submit", Job: &submitJobRequest{Walltime: "1h"}, JobID: 1}, `"job_id"`, `"cores"`},
		{"every job field", recClusterOp, clusterOpRec{ID: "d1", Op: "job.submit", JobID: 2,
			Job: &submitJobRequest{Name: "hpl", User: "alice", Cores: 4, Walltime: "2h", Runtime: "20m", Script: "mpirun xhpl"}}, `"cores":4`, `"duration"`},
		{"updates", recClusterOp, clusterOpRec{ID: "d1", Op: "updates", Policy: "notify", At: at}, `"at"`, `"job"`},
		{"provision false", recFleetCreated, fleetCreatedRec{ID: "f1", Name: "idle", Created: at,
			Req: createFleetRequest{Name: "idle", Members: 3, Nodes: 1, Provision: &no}}, `"provision":false`, `"workers"`},
		{"provision true", recFleetCreated, fleetCreatedRec{ID: "f2", Name: "busy", Created: at, Provisioned: true,
			Req: createFleetRequest{Name: "busy", Members: 2, Cluster: "littlefe", Nodes: 2, Scheduler: "slurm", Parallelism: 2, Retries: 1, Workers: 2, Provision: &yes}}, `"provision":true`, `"members":0`},
		{"provision absent", recFleetCreated, fleetCreatedRec{ID: "f3", Name: "tiny", Created: at, Provisioned: true,
			Req: createFleetRequest{Name: "tiny", Members: 2}}, `"members":2`, `"provision"`},
		{"member", recFleetMember, fleetMemberRec{}, `{}`, `"id"`},
		{"provisioned", recFleetProvisioned, fleetProvisionedRec{ID: "f1"}, `"id"`, `"state"`},
		{"fleet deleted", recFleetDeleted, fleetDeletedRec{ID: "f1"}, `"id"`, `"state"`},
		{"run started", recScenarioStarted, scenarioStartedRec{FleetID: "f1", RunID: "s1", Name: "tiny",
			Scenario: json.RawMessage(`{"name":"tiny","seed":7}`), Created: at}, `"scenario"`, `"cursor"`},
		{"progress", recScenarioProgress, scenarioProgressRec{FleetID: "f1", RunID: "s1", Cursor: 64, Hash: 1<<63 + 5}, `"hash"`, `"state"`},
		{"run settled", recScenarioSettled, scenarioSettledRec{FleetID: "f1", RunID: "s1", State: "passed",
			Result: scenarioResult(`{"passed":true}`)}, `"result"`, `"error"`},
		{"campaign started", recCampaignStarted, campaignStartedRec{ID: "c1", Created: at,
			Spec: xcbc.CampaignSpec{Seeds: 2, StartSeed: 9, Workers: 1}}, `"spec"`, `"shrink_budget"`},
		{"campaign seed", recCampaignSeed, campaignSeedRec{ID: "c1", Outcome: xcbc.CampaignSeedOutcome{Seed: 9, State: xcbc.CampaignSeedFailed,
			Failure: &xcbc.CampaignFailure{Seed: 9, Violations: []string{"jobs-conserved"}, Repro: json.RawMessage(`{"name":"repro"}`), ReproPhases: 2}}}, `"failure"`, `"error"`},
		{"campaign settled", recCampaignSettled, campaignSettledRec{ID: "c1", State: "failed", Error: "1 of 2 seeds failed"}, `"error"`, `"spec"`},
	}
}

// TestEmptyRollsSurviveRestart: a deployment created with "rolls":[] has no
// optional rolls, and a restart must rebuild it that way rather than with
// the default rolls an absent field means.
func TestEmptyRollsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	rolls := func(s *Server) []string {
		t.Helper()
		dep, ok := depRow(s, "d1")
		h := dep.handle()
		if !ok || h == nil {
			t.Fatal("d1 is not a live deployment")
		}
		d, ok := h.Deployment()
		if !ok {
			t.Fatalf("d1 is %s, not ready", h.Status())
		}
		return d.Installer().DB.Distribution().RollNames()
	}
	s1, _ := openDurable(t, dir)
	deployReady(t, s1, `{"cluster":"littlefe","rolls":[]}`)
	before := rolls(s1)
	if slices.Contains(before, "ganglia") {
		t.Fatalf("built with rolls %v: the default ganglia roll despite \"rolls\":[]", before)
	}
	s1.Close()
	s2, _ := openDurable(t, dir)
	defer s2.Close()
	if after := rolls(s2); !slices.Equal(after, before) {
		t.Errorf("rolls after restart = %v, before = %v", after, before)
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
	th, ref := scenario.NewTraceHash(), fnv.New64a()
	for i, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		ref.Write(append(line, '\n'))
		cursor, sum := th.Add(ev), th.Sum64()
		if cursor != i+1 || sum != ref.Sum64() {
			t.Fatalf("after event %d: cursor %d hash %#x, want %d %#x", i, cursor, sum, i+1, ref.Sum64())
		}
	}
}
