package api

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"xcbc/pkg/xcbc"
)

// This file serves the generative-chaos surface: /api/v1/campaigns wraps
// pkg/xcbc's RunCampaignObserved. A campaign is an asynchronous sweep of generated
// scenarios — POST validates the spec and answers 202 Accepted; clients
// poll GET for progress (per-seed counters land in seed order) and, once
// seeds fail, for the shrunk repro scripts. Every per-seed outcome is
// journaled through the durable store, so a campaign interrupted by a
// crash reports its partial results after restart instead of vanishing.

// Caps on a single campaign request so one POST cannot commit the control
// plane to unbounded CPU: each seed costs two full scenario runs (the
// determinism check) plus a WAL recovery round trip.
const (
	maxCampaignSeeds   = 4096
	maxCampaignWorkers = 32
)

// campaignRecord is one managed campaign sweep: the identity and spec it
// started (and was journaled) with, plus its live progress.
type campaignRecord struct {
	campaignStartedRec
	tn   *tenant
	done chan struct{}

	mu        sync.Mutex
	state     string // "running", "passed", "failed", "error", "interrupted"
	errMsg    string
	completed int
	passed    int
	failed    int
	errs      int
	failures  []xcbc.CampaignFailure
}

// campaignInfo is the JSON shape of one campaign. Counters advance in
// seed order while the sweep runs; Failures carries every failing seed's
// violations and minimized repro script.
type campaignInfo struct {
	ID           string                 `json:"id"`
	Created      time.Time              `json:"created"`
	State        string                 `json:"state"`
	Error        string                 `json:"error,omitempty"`
	Seeds        int                    `json:"seeds"`
	StartSeed    int64                  `json:"start_seed"`
	Workers      int                    `json:"workers,omitempty"`
	ShrinkBudget int                    `json:"shrink_budget,omitempty"`
	Completed    int                    `json:"completed"`
	Passed       int                    `json:"passed"`
	Failed       int                    `json:"failed"`
	Errors       int                    `json:"errors"`
	Failures     []xcbc.CampaignFailure `json:"failures,omitempty"`
}

func campaignInfoOf(cr *campaignRecord) campaignInfo {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return campaignInfo{
		ID: cr.ID, Created: cr.Created, State: cr.state, Error: cr.errMsg,
		Seeds: cr.Spec.Seeds, StartSeed: cr.Spec.StartSeed,
		Workers: cr.Spec.Workers, ShrinkBudget: cr.Spec.ShrinkBudget,
		Completed: cr.completed, Passed: cr.passed,
		Failed: cr.failed, Errors: cr.errs,
		Failures: append([]xcbc.CampaignFailure(nil), cr.failures...),
	}
}

// absorb folds one seed outcome into the record's counters.
func (cr *campaignRecord) absorb(out xcbc.CampaignSeedOutcome) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.completed++
	switch out.State {
	case xcbc.CampaignSeedPassed:
		cr.passed++
	case xcbc.CampaignSeedFailed:
		cr.failed++
		if out.Failure != nil {
			cr.failures = append(cr.failures, *out.Failure)
		}
	default:
		cr.errs++
	}
}

// settleState reduces final counters to a campaign state: "passed" only
// when every seed passed; any violation makes it "failed"; mechanical
// trouble (cancellation, seeds that errored) makes it "error".
func settleState(failed, errs int, err error) (string, string) {
	switch {
	case err != nil:
		return "error", err.Error()
	case failed > 0:
		return "failed", ""
	case errs > 0:
		return "error", "some seeds did not complete"
	}
	return "passed", ""
}

// createCampaignRequest starts a sweep of generated scenarios.
type createCampaignRequest struct {
	Seeds        int   `json:"seeds"`
	StartSeed    int64 `json:"start_seed"`
	Workers      int   `json:"workers"`
	ShrinkBudget int   `json:"shrink_budget"`
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	servePage(w, r, "campaigns", s.tenant(r).campaigns, campaignInfoOf)
}

// handleCreateCampaign validates the spec synchronously, then starts the
// sweep in the background and answers 202 Accepted with the campaign in
// state "running". Clients poll GET /api/v1/campaigns/{id}.
func (s *Server) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	var req createCampaignRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Seeds > maxCampaignSeeds {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("seeds exceeds the per-campaign cap of %d", maxCampaignSeeds))
		return
	}
	if req.Workers > maxCampaignWorkers {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("workers exceeds the cap of %d", maxCampaignWorkers))
		return
	}
	spec := xcbc.CampaignSpec{
		Seeds: req.Seeds, StartSeed: req.StartSeed,
		Workers: req.Workers, ShrinkBudget: req.ShrinkBudget,
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tn := s.tenant(r)
	cr, quota := tn.campaigns.insert(func(id string) *campaignRecord {
		return &campaignRecord{
			campaignStartedRec: campaignStartedRec{ID: id, Spec: spec, Created: s.clock()},
			tn:                 tn, state: "running", done: make(chan struct{}),
		}
	})
	if quota != nil {
		writeJSON(w, http.StatusForbidden, quota)
		return
	}
	tn.emit(recCampaignStarted, cr.campaignStartedRec)
	accepted := campaignInfoOf(cr) // before the sweep starts: always "running"
	go s.executeCampaign(cr)
	writeJSON(w, http.StatusAccepted, accepted)
}

// executeCampaign drives one campaign to settlement on its own goroutine.
// The per-seed observer runs on the campaign's goroutine in seed order, so
// counters (and the journal records they emit) advance deterministically
// even though the pool interleaves the underlying runs.
func (s *Server) executeCampaign(cr *campaignRecord) {
	st := cr.tn.store
	spec := cr.Spec
	if spec.CheckHook == nil {
		spec.CheckHook = s.campaignHook
	}
	res, err := xcbc.RunCampaignObserved(context.Background(), spec,
		func(out xcbc.CampaignSeedOutcome) {
			cr.absorb(out)
			if st != nil {
				st.emit(recCampaignSeed, campaignSeedRec{ID: cr.ID, Outcome: out})
			}
		})
	var state, errMsg string
	if res == nil {
		state, errMsg = "error", err.Error()
	} else {
		state, errMsg = settleState(res.Failed, res.Errors, err)
	}
	cr.mu.Lock()
	cr.state, cr.errMsg = state, errMsg
	cr.mu.Unlock()
	if st != nil {
		st.emit(recCampaignSettled, campaignSettledRec{ID: cr.ID, State: state, Error: errMsg})
	}
	close(cr.done)
}

// handleCampaign reports one campaign's progress — and, once seeds fail,
// the shrunk repros.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	cr, ok := s.tenant(r).campaigns.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	writeJSON(w, http.StatusOK, campaignInfoOf(cr))
}

// recoverCampaign materializes one campaign from its mirror entry. A
// campaign that settled before the crash reloads its recorded outcomes; a
// campaign in flight at the crash settles as "interrupted" — its journaled
// per-seed outcomes are the partial result, and the sweep is not re-run
// (generated seeds are cheap to re-sweep explicitly; silently burning CPU
// on restart is not this store's call to make).
func (st *store) recoverCampaign(m campaignMirror, report *RecoveryReport) *campaignRecord {
	cr := &campaignRecord{campaignStartedRec: m.Started, tn: st.tn, done: make(chan struct{})}
	for _, out := range m.Outcomes {
		cr.absorb(out)
	}
	if m.State == "" {
		msg := fmt.Sprintf("interrupted: the server terminated after %d of %d seeds", cr.completed, cr.Spec.Seeds)
		cr.state, cr.errMsg = "interrupted", msg
		st.emit(recCampaignSettled, campaignSettledRec{ID: cr.ID, State: cr.state, Error: msg})
		report.CampaignsInterrupted++
	} else {
		cr.state, cr.errMsg = m.State, m.Error
	}
	close(cr.done)
	report.Campaigns++
	return cr
}
