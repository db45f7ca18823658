package api

import (
	"bytes"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"xcbc/internal/wal"
	"xcbc/pkg/xcbc"
)

// TestCampaignLifecycle drives a small clean sweep through the REST
// surface: 202 on create, progress visible by id and in the list, and a
// terminal "passed" state with every seed accounted for.
func TestCampaignLifecycle(t *testing.T) {
	s := newTestServer(t)
	var created campaignInfo
	rec := do(t, s, "POST", "/api/v1/campaigns", `{"seeds":3,"workers":4}`, &created)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create campaign: %d %s", rec.Code, rec.Body.String())
	}
	if created.ID == "" || created.State != "running" || created.Seeds != 3 {
		t.Fatalf("created campaign = %+v", created)
	}

	info := awaitSettled[campaignInfo](t, s, "", "/api/v1/campaigns/"+created.ID)
	if info.State != "passed" || info.Completed != 3 || info.Passed != 3 || info.Failed != 0 {
		t.Fatalf("settled campaign = %+v, want 3/3 passed", info)
	}

	var list struct {
		Campaigns []campaignInfo `json:"campaigns"`
	}
	if rec := do(t, s, "GET", "/api/v1/campaigns", "", &list); rec.Code != http.StatusOK {
		t.Fatalf("list campaigns: %d", rec.Code)
	}
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != created.ID {
		t.Fatalf("campaign list = %+v", list.Campaigns)
	}
}

func TestCampaignRequestErrors(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"seeds":0}`, http.StatusBadRequest},
		{`{"seeds":-3}`, http.StatusBadRequest},
		{fmt.Sprintf(`{"seeds":%d}`, maxCampaignSeeds+1), http.StatusBadRequest},
		{fmt.Sprintf(`{"seeds":1,"workers":%d}`, maxCampaignWorkers+1), http.StatusBadRequest},
		{`{"seeds":1,"shrink_budget":-1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if rec := do(t, s, "POST", "/api/v1/campaigns", c.body, nil); rec.Code != c.want {
			t.Errorf("POST %s = %d, want %d", c.body, rec.Code, c.want)
		}
	}
	if rec := do(t, s, "GET", "/api/v1/campaigns/c99", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("GET unknown campaign = %d, want 404", rec.Code)
	}
}

// floodHook is the planted invariant bug for API-level campaign tests:
// any generated scenario that contains a job-flood phase "fails". Purely
// a function of the scenario, so shrunk repros re-fail deterministically.
func floodHook(sc *xcbc.Scenario, res *xcbc.ScenarioResult) []string {
	doc, err := sc.JSON()
	if err == nil && bytes.Contains(doc, []byte("job-flood")) {
		return []string{"planted: job-flood ran"}
	}
	return nil
}

// floodSeedWindow finds a seed window whose generated scenarios include at
// least one with a job-flood phase.
func floodSeedWindow(t *testing.T) (int64, int) {
	t.Helper()
	for seed := int64(0); seed < 200; seed++ {
		if floodHook(xcbc.GenerateScenario(seed), nil) != nil {
			return seed, 2
		}
	}
	t.Fatal("no generated scenario with a job-flood phase in 200 seeds")
	return 0, 0
}

// TestCampaignFailureCarriesShrunkRepro plants a bug through the config
// seam and requires the REST surface to deliver what the ISSUE promises:
// a failed campaign whose failure entry carries a minimized, loadable
// repro script for the failing seed.
func TestCampaignFailureCarriesShrunkRepro(t *testing.T) {
	start, n := floodSeedWindow(t)
	s := New(Config{CampaignHook: floodHook})
	body := fmt.Sprintf(`{"seeds":%d,"start_seed":%d,"workers":2,"shrink_budget":80}`, n, start)
	var created campaignInfo
	if rec := do(t, s, "POST", "/api/v1/campaigns", body, &created); rec.Code != http.StatusAccepted {
		t.Fatalf("create campaign: %d %s", rec.Code, rec.Body.String())
	}

	info := awaitSettled[campaignInfo](t, s, "", "/api/v1/campaigns/"+created.ID)
	if info.State != "failed" || info.Failed == 0 || len(info.Failures) == 0 {
		t.Fatalf("campaign missed the planted bug: %+v", info)
	}
	f := info.Failures[0]
	repro, err := xcbc.LoadScenario(f.Repro)
	if err != nil {
		t.Fatalf("failure repro does not load: %v\n%s", err, f.Repro)
	}
	if f.ReproPhases != repro.Phases() {
		t.Errorf("repro_phases = %d, script has %d", f.ReproPhases, repro.Phases())
	}
	if orig := xcbc.GenerateScenario(f.Seed); repro.Phases() >= orig.Phases() {
		t.Errorf("repro has %d phases, original %d — nothing shrunk", repro.Phases(), orig.Phases())
	}
	if floodHook(repro, nil) == nil {
		t.Error("shrunk repro no longer contains the planted trigger")
	}
}

// TestCampaignDurableSettled journals a clean campaign, restarts the
// server, and requires the campaign to reload with its full recorded
// result — without re-sweeping any seed.
func TestCampaignDurableSettled(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openDurable(t, dir)
	var created campaignInfo
	if rec := do(t, s1, "POST", "/api/v1/campaigns", `{"seeds":2,"workers":2}`, &created); rec.Code != http.StatusAccepted {
		t.Fatalf("create campaign: %d %s", rec.Code, rec.Body.String())
	}
	before := awaitSettled[campaignInfo](t, s1, "", "/api/v1/campaigns/"+created.ID)
	s1.Close()

	s2, rep := openDurable(t, dir)
	defer s2.Close()
	if rep.Campaigns != 1 || rep.CampaignsInterrupted != 0 {
		t.Fatalf("recovery report = %+v, want 1 settled campaign", rep)
	}
	var after campaignInfo
	if rec := do(t, s2, "GET", "/api/v1/campaigns/"+created.ID, "", &after); rec.Code != http.StatusOK {
		t.Fatalf("GET recovered campaign: %d", rec.Code)
	}
	if after.State != before.State || after.Completed != before.Completed || after.Passed != before.Passed {
		t.Fatalf("recovered campaign = %+v, want %+v", after, before)
	}

	// New campaigns after recovery must not collide with recovered IDs.
	var next campaignInfo
	if rec := do(t, s2, "POST", "/api/v1/campaigns", `{"seeds":1,"workers":2}`, &next); rec.Code != http.StatusAccepted {
		t.Fatalf("create after recovery: %d", rec.Code)
	}
	if next.ID == created.ID {
		t.Fatalf("recovered server reused campaign ID %s", next.ID)
	}
	awaitSettled[campaignInfo](t, s2, "", "/api/v1/campaigns/"+next.ID)
}

// TestCloseWhileCampaignRuns closes a durable server the moment a campaign
// starts. The sweep journals through its tenant's store while Close shuts
// that store down: under -race the two must not touch the same memory
// unsynchronized, Close waits for the sweep, and the DataDir reopens with
// the campaign settled.
func TestCloseWhileCampaignRuns(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir)
	if rec := do(t, s, "POST", "/api/v1/campaigns", `{"seeds":2,"workers":1}`, nil); rec.Code != http.StatusAccepted {
		t.Fatalf("create campaign: %d %s", rec.Code, rec.Body.String())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rep := openDurable(t, dir)
	defer s2.Close()
	var info campaignInfo
	if rec := do(t, s2, "GET", "/api/v1/campaigns/c1", "", &info); rec.Code != http.StatusOK || rep.Campaigns != 1 || info.State == "running" {
		t.Fatalf("reopened after Close: report %+v, campaign %+v", rep, info)
	}
}

// TestCloseStopsWhatTheStoreStarted closes a durable server while a 64-seed
// campaign and a scenario run are in flight, the campaign held in its check
// hook and the run parked at its first checkpoint. Close cancels both and
// waits for them: once it returns the hook is never entered again and
// nothing more is logged, and the DataDir holds what a crash would have
// left — the run replays, and the campaign settles "interrupted" with the
// outcomes it journaled.
func TestCloseStopsWhatTheStoreStarted(t *testing.T) {
	dir := t.TempDir()
	var entries atomic.Int32
	var closed atomic.Bool
	held, release, late := make(chan struct{}), make(chan struct{}), make(chan struct{}, 1)
	hook := func(*xcbc.Scenario, *xcbc.ScenarioResult) []string {
		switch n := entries.Add(1); {
		case closed.Load():
			select {
			case late <- struct{}{}:
			default:
			}
		case n == 4: // the outcomes of the seeds before it may be journaled
			close(held)
			<-release
		}
		return nil
	}
	s, _ := openDurable(t, dir, func(c *Config) { c.CampaignHook = hook })
	fleet := `{"name":"campus-100","members":100,"cluster":"littlefe","nodes":4,"parallelism":4,"workers":8,` + unprovisioned + `}`
	st := s.openTenant.store
	parked, releaseRun := parkAt(st, recScenarioProgress)
	for _, post := range [][2]string{
		{"/api/v1/fleets", fleet},
		{"/api/v1/campaigns", `{"seeds":64,"workers":1}`},
		{"/api/v1/fleets/f1/scenarios", `{"name":"campus-100"}`},
	} {
		if rec := do(t, s, "POST", post[0], post[1], nil); rec.Code != http.StatusAccepted {
			t.Fatalf("POST %s: %d %s", post[0], rec.Code, rec.Body.String())
		}
	}
	<-held
	<-parked
	closeErr := make(chan error, 1)
	go func() { closeErr <- s.Close() }()
	<-st.ctx.Done() // Close has cancelled both; it waits for them next
	close(release)
	releaseRun()
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	logged := len(loggedMirror(t, dir).Campaigns["c1"].Outcomes)
	// A sweep that outlived Close would enter the hook again within a
	// seed's run, a few milliseconds.
	select {
	case <-late:
		t.Fatal("the campaign's hook was entered after Close returned")
	case <-time.After(100 * time.Millisecond):
	}

	s2, rep := openDurable(t, dir)
	defer s2.Close()
	if rep.Replayed != 1 || rep.ReplayMismatches != 0 || rep.CampaignsInterrupted != 1 {
		t.Fatalf("reopened after Close: %+v, want the run replayed and the campaign interrupted", rep)
	}
	if run := awaitSettled[scenarioRunInfo](t, s2, "", "/api/v1/fleets/f1/scenarios/s1"); run.State != "passed" {
		t.Fatalf("replayed run settled %q: %s", run.State, run.Error)
	}
	var info campaignInfo
	do(t, s2, "GET", "/api/v1/campaigns/c1", "", &info)
	if info.State != "interrupted" || info.Completed != logged {
		t.Fatalf("reopened campaign = %+v, want interrupted with the %d outcomes logged when Close returned", info, logged)
	}
}

// TestCampaignInterruptedRecovery synthesizes the WAL of a server that
// died mid-campaign — started, two of four seeds journaled, no settled
// record — and requires recovery to surface the partial results as an
// "interrupted" campaign rather than dropping or silently re-running it.
func TestCampaignInterruptedRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	created := time.Date(2015, 9, 8, 12, 0, 0, 0, time.UTC)
	repro, err := xcbc.GenerateScenario(8).JSON()
	if err != nil {
		t.Fatal(err)
	}
	records := []struct {
		typ string
		v   any
	}{
		{recCampaignStarted, campaignStartedRec{
			ID: "c1", Spec: xcbc.CampaignSpec{Seeds: 4, StartSeed: 7}, Created: created,
		}},
		{recCampaignSeed, campaignSeedRec{ID: "c1", Outcome: xcbc.CampaignSeedOutcome{
			Seed: 7, State: xcbc.CampaignSeedPassed,
		}}},
		{recCampaignSeed, campaignSeedRec{ID: "c1", Outcome: xcbc.CampaignSeedOutcome{
			Seed: 8, State: xcbc.CampaignSeedFailed,
			Violations: []string{"planted: synthetic"},
			Failure: &xcbc.CampaignFailure{
				Seed: 8, Violations: []string{"planted: synthetic"},
				Repro: repro, ReproPhases: 3, ShrinkEvals: 12,
			},
		}}},
	}
	for _, r := range records {
		if _, err := l.AppendJSON(r.typ, r.v); err != nil {
			t.Fatalf("append %s: %v", r.typ, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s, rep := openDurable(t, dir)
	if rep.Campaigns != 1 || rep.CampaignsInterrupted != 1 {
		t.Fatalf("recovery report = %+v, want 1 interrupted campaign", rep)
	}
	var info campaignInfo
	if rec := do(t, s, "GET", "/api/v1/campaigns/c1", "", &info); rec.Code != http.StatusOK {
		t.Fatalf("GET interrupted campaign: %d", rec.Code)
	}
	if info.State != "interrupted" || info.Error == "" {
		t.Fatalf("interrupted campaign = %+v", info)
	}
	if info.Completed != 2 || info.Passed != 1 || info.Failed != 1 || info.Seeds != 4 {
		t.Fatalf("partial results = %+v, want 2 of 4 seeds (1 passed, 1 failed)", info)
	}
	if len(info.Failures) != 1 || info.Failures[0].Seed != 8 {
		t.Fatalf("journaled failure lost: %+v", info.Failures)
	}
	if _, err := xcbc.LoadScenario(info.Failures[0].Repro); err != nil {
		t.Fatalf("recovered repro does not load: %v", err)
	}
	s.Close()

	// The interruption was itself journaled: a second recovery restores the
	// campaign as settled, not interrupted again.
	s2, rep2 := openDurable(t, dir)
	defer s2.Close()
	if rep2.Campaigns != 1 || rep2.CampaignsInterrupted != 0 {
		t.Fatalf("second recovery = %+v, want settled campaign", rep2)
	}
	var again campaignInfo
	if rec := do(t, s2, "GET", "/api/v1/campaigns/c1", "", &again); rec.Code != http.StatusOK {
		t.Fatalf("GET after second recovery: %d", rec.Code)
	}
	if again.State != "interrupted" || again.Completed != 2 {
		t.Fatalf("second recovery lost state: %+v", again)
	}
}
