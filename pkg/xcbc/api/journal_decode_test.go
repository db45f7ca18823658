package api

import (
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xcbc/internal/wal"
)

// journalKinds are what FuzzDecodeJournal decodes: a whole snapshot, as
// store.open reads it, and each record type, as decodeRecord reads it.
var journalKinds = []string{"snapshot", recDeploymentCreated, recDeploymentEvent, recDeploymentSettled, recDeploymentDeleted, recClusterOp,
	recFleetCreated, recFleetProvisioned, recFleetDeleted, recScenarioStarted, recScenarioProgress, recScenarioSettled,
	recCampaignStarted, recCampaignSeed, recCampaignSettled}

// FuzzDecodeJournal holds recovery's decoder to its contract, with
// encoding/json on the same types as the oracle: whenever the decoder
// returns a value, encoding/json must succeed on the same bytes with a
// deeply equal one.
func FuzzDecodeJournal(f *testing.F) {
	seed := func(data string) {
		for k := range journalKinds {
			f.Add(uint8(k), []byte(data))
		}
	}
	for _, tc := range recordCases() {
		data, err := encodeRecord(tc.rec)
		if err != nil {
			f.Fatal(err)
		}
		seed(string(data))
	}
	snap, records := fixtureJournal(f)
	seed(string(snap))
	for _, r := range records {
		seed(string(r.Data))
	}
	for _, data := range hostileJournal {
		seed(data)
	}
	// A ready settlement with its summary, an update with compat counts, and
	// a snapshot whose ready row carries both.
	row := &depMirror{Created: depCreatedRec{ID: "d1", Path: "xcbc", Req: createDeploymentRequest{Cluster: "littlefe"}}, State: "ready"}
	for _, tc := range summaryCases() {
		data, err := encodeRecord(tc.rec)
		if err != nil {
			f.Fatal(err)
		}
		seed(string(data))
		tc.rec.apply(&mirror{Deployments: map[string]*depMirror{"d1": row, "d3": row}})
	}
	snap, err := json.Marshal(&mirror{Deployments: map[string]*depMirror{"d1": row}, Fleets: map[string]*fleetMirror{}, NextID: 1})
	if err != nil {
		f.Fatal(err)
	}
	seed(string(snap))
	for _, data := range append(fleetJournal(f), campaignJournal(f)...) {
		seed(data)
	}
	// The metrics and alerts reads an older binary journaled as ops, and a
	// snapshot whose ready row holds both: they decode, and recovery drops
	// them.
	seed(`{"id":"d1","op":"metrics"}`)
	seed(`{"id":"d1","op":"alerts"}`)
	seed(`{"deployments":{"d1":{"created":{"id":"d1","path":"xcbc","req":{"cluster":"littlefe"}},"state":"ready",` +
		`"ops":[{"op":"job.submit","job":{"cores":1},"job_id":1},{"op":"metrics"},{"op":"alerts"}]}},"next_id":1}`)
	// Op logs Open only scans: a read found by a folded key or an escape,
	// and logs that are valid JSON but no list of ops.
	seed(`{"deployments":{"d1":{"state":"ready","ops":[{"OP":"metrics","op":"job.submit"},{"op":"\u0061lerts"}]},` +
		`"d2":{"ops":5},"d3":{"ops":[1,{"op":5}]},"d4":{"ops":[ ]},"d5":{"ops":null,"OPS":{"op":"metrics"}}}}`)
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		got, want, err := decodeJournalAs(journalKinds[int(kind)%len(journalKinds)], data)
		if err != nil {
			return
		}
		if err := json.Unmarshal(data, want); err != nil {
			t.Fatalf("decoded %q, which encoding/json refuses: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoding %q\n got: %#v\nwant: %#v", data, got, want)
		}
	})
}

// settledResult is a settled run's result with violations, stats, and
// trace strings encoding/json escapes or leaves alone.
const settledResult = `{"scenario":"rolling-update","seed":7,"passed":false,` +
	`"violations":["all-ready: ready=1 \u003c2\u003e","jobs \"conserved\""],` +
	`"stats":{"members":2,"ready":1,"failed":1,"cancelled":0,"quarantined_nodes":3,"jobs_submitted":4,"jobs_cancelled":1,"updates_applied":2,"simulated_end":3600000000000},` +
	`"events":[{"seq":0,"phase":-1,"kind":"scenario.start"},` +
	`{"seq":1,"phase":0,"kind":"member.ready","member":"m-0","node":"compute-0-1","detail":"packages=151 duration=1h2m3s"},` +
	`{"seq":2,"phase":0,"kind":"a\u003cb\u003ec\u0026d","member":"é日本語😀","detail":"tab\there \"q\" back\\slash \u2028 \ufffd"},` +
	`{"seq":3,"phase":1,"kind":"x","node":"\u0000\u001f"}]}`

// fleetJournal is fleet-side journal entries beyond recordCases': a
// snapshot holding a settled run, the settlement that carries it, and null
// fleet and run rows.
func fleetJournal(tb testing.TB) []string {
	fleet := `{"created":{"id":"f1","name":"idle","req":{"name":"idle","members":2,"provision":false},"created":"2015-09-08T12:00:00Z","provisioned":false},` +
		`"provisioned":true,"runs":[{"started":{"fleet_id":"f1","run_id":"s1","name":"rolling-update","scenario":{"name":"rolling-update","seed":7},` +
		`"created":"2015-09-08T12:00:00Z"},"cursor":64,"hash":18446744073709551615,"state":"failed","result":` + settledResult + `}]}`
	for _, data := range []string{fleet, settledResult} {
		if !json.Valid([]byte(data)) {
			tb.Fatalf("invalid seed %s", data)
		}
	}
	return []string{
		`{"deployments":{},"fleets":{"f1":` + fleet + `},"next_id":0,"next_fleet_id":1}`,
		`{"fleet_id":"f1","run_id":"s1","state":"failed","result":` + settledResult + `}`,
		`{"deployments":{},"fleets":{"f1":null,"f2":{"runs":[null,{"state":"passed","result":null}]}}}`,
		`{"fleets":{"f1":{"runs":null,"created":{"req":{"provision":null,"PROVISION":true}}}}}`,
	}
}

// campaignJournal is campaign-side journal entries beyond recordCases': a
// snapshot holding a campaign whose failed outcome carries its repro, a
// seed record with a null failure, one with a null outcome, and a null
// outcome in a row.
func campaignJournal(tb testing.TB) []string {
	failed := `{"seed":9,"state":"failed","violations":["jobs-conserved"],"failure":{"seed":9,"violations":["jobs-conserved"],` +
		`"repro":{"name":"repro","seed":9,"phases":[{"name":"p0"}]},"repro_phases":2,"shrink_evals":5}}`
	if !json.Valid([]byte(failed)) {
		tb.Fatalf("invalid seed %s", failed)
	}
	return []string{
		`{"deployments":{},"fleets":{},"campaigns":{"c1":{"started":{"id":"c1","spec":{"seeds":2,"start_seed":9,"workers":1},` +
			`"created":"2015-09-08T12:00:00Z"},"outcomes":[` + failed + `,{"seed":10,"state":"error","error":"boom","failure":null}],` +
			`"state":"failed","error":"1 of 2 seeds failed"}},"next_campaign_id":1}`,
		`{"id":"c1","outcome":{"seed":10,"state":"passed","failure":null}}`,
		`{"id":"c1","outcome":null}`,
		`{"campaigns":{"c1":{"outcomes":[null,{"seed":1,"FAILURE":{"repro":null}}],"started":{"spec":{"CheckHook":1,"seeds":3}}}}}`,
	}
}

// TestJournalReaderDecodesEveryRecord decodes a snapshot holding fleets, a
// settled run and a campaign, and every record type, with the reader, the
// decoder's only path: each decodes to what encoding/json makes of the
// same bytes, the result's trace and the campaign's repro included.
func TestJournalReaderDecodesEveryRecord(t *testing.T) {
	fleets, campaigns := fleetJournal(t), campaignJournal(t)
	entries := map[string][]string{
		"snapshot":         {fleets[0], campaigns[0], campaigns[3]},
		recScenarioSettled: fleets[1:2],
		recCampaignSeed:    campaigns[1:3],
	}
	for _, tc := range recordCases() {
		data, err := encodeRecord(tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		entries[tc.typ] = append(entries[tc.typ], string(data))
	}
	for _, kind := range slices.Sorted(maps.Keys(entries)) {
		for _, d := range entries[kind] {
			got, want, err := decodeJournalAs(kind, []byte(d))
			if err != nil {
				t.Fatalf("%s %.80s: %v", kind, d, err)
			}
			if err := json.Unmarshal([]byte(d), want); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s %.80s: decoded %#v, encoding/json %#v (%v)", kind, d, got, want, err)
			}
		}
	}
	m := newMirror()
	if err := decodeJSON([]byte(fleets[0]), m); err != nil || len(m.Fleets["f1"].Runs[0].Result.Trace()) != 4 {
		t.Fatalf("snapshot decoded to %+v, %v", m.Fleets["f1"], err)
	}
	if err := decodeJSON([]byte(campaigns[0]), m); err != nil || string(m.Campaigns["c1"].Outcomes[0].Failure.Repro) != `{"name":"repro","seed":9,"phases":[{"name":"p0"}]}` {
		t.Fatalf("snapshot decoded to %+v, %v", m.Campaigns["c1"], err)
	}
	if err := decodeJSON([]byte(`{}`), new(int)); err == nil || !strings.Contains(err.Error(), "no decoder for *int") {
		t.Errorf("decoding into a type the reader lacks: %v", err)
	}
	if _, err := decodeRecord(recCampaignSeed, []byte(`{"outcome":{"failure":{"repro_phases":"2"}}}`)); err == nil || !strings.Contains(err.Error(), "offset") {
		t.Errorf("a campaign seed with a string count: %v, want a refusal with its offset", err)
	}
}

// decodeJournalAs decodes data as recovery reads a journal entry of kind,
// returning the value and a zero one of its type for the oracle.
func decodeJournalAs(kind string, data []byte) (got, zero any, err error) {
	if kind == "snapshot" {
		m := newMirror()
		return m, newMirror(), decodeJSON(data, m)
	}
	rec, err := decodeRecord(kind, data)
	if err != nil {
		return nil, nil, err
	}
	return rec, reflect.New(reflect.TypeOf(rec).Elem()).Interface(), nil
}

// fixtureJournal is the parent-written DataDir's snapshot and log tail.
func fixtureJournal(tb testing.TB) ([]byte, []wal.Record) {
	dir := tb.TempDir()
	if err := os.CopyFS(dir, os.DirFS(pinDataDir)); err != nil {
		tb.Fatal(err)
	}
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	return rec.Snapshot, rec.Records
}

// hostileJournal are inputs on which a hand-written decoder most easily
// parts from encoding/json.
var hostileJournal = []string{
	// null, [] and explicit zeros.
	`{"id":"d1","req":{"rolls":null,"profiles":[],"node_count":0},"nodes":0,"created":null}`,
	`{"deployments":{"d1":{"created":{"id":"d1","req":{"rolls":[]}},"events":null,"ops":[]}},"fleets":null,"campaigns":{}}`,
	`{"deployments":{"d1":null}}`,
	`{"deployments":null,"next_id":null}`,
	`null`,
	`{"op":"job.submit","job":null,"job_id":null}`,
	`{"id":"d1","events":[null,{"seq":1}]}`,
	// Case-insensitive keys, folding beyond ASCII, and duplicates.
	`{"ID":"d1","Id":"d2","STATE":"failed","Error":"x"}`,
	`{"id":"d1","event":{"pac` + "\u212a" + `ages":3,"` + "\u017f" + `tage":"wave","` + "\u0130" + `d":1,"` + "\u0131" + `d":2}}`,
	`{"id":"d1","id":"d2"}`,
	`{"op":"job.submit","job":{"name":"a","cores":2},"job":{"user":"b"},"JOB":{"cores":null}}`,
	`{"id":"d1","events":[{"seq":1,"stage":"a"},{"seq":2,"node":"n"},{"seq":3}],"events":[{"seq":4}],"events":[{},{}]}`,
	`{"deployments":{"d1":{"ops":[{"op":"a"}]},"d1":{"state":"ready"}},"deployments":{"d2":{}}}`,
	`{"created":{"req":{"rolls":["a","b"]}},"created":{"req":{"rolls":["c"]}},"created":{"req":{"rolls":[null,null]}}}`,
	// Strings: json.Marshal's escapes, surrogates, invalid UTF-8.
	`{"id":"<d1> &  ","error":"\"\\\/\b\f\n\r\t"}`,
	`{"id":"😀","state":"\ud800","error":"\udc00x\ud800A\ud83d"}`,
	"{\"id\":\"\xff\xfe\xed\xa0\x80 \xe2\x82\",\"state\":\"\xef\xbf\xbd\"}",
	"{\"id\":\"\x01\"}",
	`{"id":"\'"}`,
	`{"id":"\u12G4"}`,
	`{"id":"abc`,
	`{"id":"\`,
	// time.Time through its UnmarshalJSON.
	`{"op":"updates","at":"2015-09-08T12:00:00Z","policy":"notify"}`,
	`{"op":"updates","at":"2015-09-08T12:00:00.5+02:00"}`,
	`{"op":"updates","at":"2015-09-08T12:00:00Z"}`,
	`{"at":"bad"}`, `{"at":1}`, `{"at":{}}`, `{"at":null}`,
	// Integers only, in range.
	`{"seq":1.0}`, `{"id":"d1","event":{"seq":1e2}}`, `{"nodes":-0}`, `{"nodes":01}`,
	`{"nodes":9223372036854775807}`, `{"nodes":9223372036854775808}`, `{"nodes":-}`, `{"nodes":"1"}`,
	`{"cursor":-9223372036854775808,"hash":18446744073709551615}`, `{"cursor":-9223372036854775809}`,
	`{"hash":18446744073709551616}`, `{"hash":-0}`, `{"hash":-1}`, `{"hash":+1}`, `{"provisioned":true,"PROVISIONED":null}`,
	// Unknown keys of every kind, and syntax around them.
	`{"x":[1,-2.5e+3,true,false,null,"s",{"y":[]}],"id":"d1"}`,
	`{"x":[1,]}`, `{"x":{"y"}}`, `{"x":tru}`, `{,"id":"d1"}`, `{"id":"d1",}`, `{"id" "d1"}`,
	// Wrong types, trailing bytes, whitespace.
	`{"req":"x"}`, `{"events":{}}`, `{"id":1}`, `[]`, `"d1"`, ``,
	`{"id":"d1"} x`, `{"id":"d1"}}`, " \t\n{ \"id\" : \"d1\" }\r\n ",
	// Nesting at and past encoding/json's limit.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

// TestDecodeJournalErrs checks the hostile inputs the contract lets the
// decoder refuse are refused, and that a refusal names where it stopped.
func TestDecodeJournalErrs(t *testing.T) {
	for _, tc := range []struct{ kind, data string }{
		{"snapshot", `{"deployments":{"d1":null}}`},
		{recClusterOp, `{"at":"bad"}`},
		{"snapshot", `{"fleets":{"f1":{"created":5}}}`},
		{recDeploymentDeleted, `{"id":"d1"} x`},
		{recDeploymentCreated, `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`},
	} {
		if _, _, err := decodeJournalAs(tc.kind, []byte(tc.data)); err == nil || !strings.Contains(err.Error(), "offset") {
			t.Errorf("%s %.40q: err = %v, want a refusal with its offset", tc.kind, tc.data, err)
		}
	}
}
