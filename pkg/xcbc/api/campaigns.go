package api

import (
	"cmp"
	"fmt"
	"net/http"
	"time"

	"xcbc/pkg/xcbc"
)

// This file serves the generative-chaos surface: /api/v1/campaigns wraps
// pkg/xcbc's RunCampaignObserved. A campaign is an asynchronous sweep of generated
// scenarios — POST validates the spec and answers 202 Accepted; clients
// poll GET for progress (per-seed counters land in seed order) and, once
// seeds fail, for the shrunk repro scripts. A campaign is served from its
// mirror row, and every per-seed outcome reaches the row through the store
// — journaled first on a durable server — so a campaign interrupted by a
// crash reports its partial results after restart instead of vanishing.

// Caps on a single campaign request so one POST cannot commit the control
// plane to unbounded CPU: each seed costs two full scenario runs (the
// determinism check) plus a WAL recovery round trip.
const (
	maxCampaignSeeds   = 4096
	maxCampaignWorkers = 32
)

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

// campaignInfoOf renders a campaign's row; the counters are counted from
// its outcomes.
func campaignInfoOf(st *store, c *campaignMirror) campaignInfo {
	st.idx.RLock()
	defer st.idx.RUnlock()
	spec := c.Started.Spec
	info := campaignInfo{
		ID: c.Started.ID, Created: c.Started.Created, State: cmp.Or(c.State, "running"), Error: c.Error,
		Seeds: spec.Seeds, StartSeed: spec.StartSeed, Workers: spec.Workers, ShrinkBudget: spec.ShrinkBudget,
		Completed: len(c.Outcomes),
	}
	for _, out := range c.Outcomes {
		switch out.State {
		case xcbc.CampaignSeedPassed:
			info.Passed++
		case xcbc.CampaignSeedFailed:
			info.Failed++
			if out.Failure != nil {
				info.Failures = append(info.Failures, *out.Failure)
			}
		default:
			info.Errors++
		}
	}
	return info
}

// settleState reduces a finished sweep to a campaign state: "passed" only
// when every seed passed; any violation makes it "failed"; mechanical
// trouble (a refused spec, seeds that errored) makes it "error".
func settleState(res *xcbc.CampaignResult, err error) (string, string) {
	switch {
	case res == nil:
		return "error", err.Error()
	case res.Failed > 0:
		return "failed", ""
	case res.Errors > 0:
		return "error", "some seeds did not complete"
	}
	return "passed", ""
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request, st *store) {
	servePage(w, r, "campaigns", st, st.m.Campaigns, campaignInfoOf)
}

// handleCreateCampaign decodes and validates the spec synchronously, then
// starts the sweep in the background and answers 202 Accepted with the
// campaign in state "running". Clients poll GET /api/v1/campaigns/{id}.
func (s *Server) handleCreateCampaign(w http.ResponseWriter, r *http.Request, st *store) {
	var spec xcbc.CampaignSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	if spec.Seeds > maxCampaignSeeds {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("seeds exceeds the per-campaign cap of %d", maxCampaignSeeds))
		return
	}
	if spec.Workers > maxCampaignWorkers {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("workers exceeds the cap of %d", maxCampaignWorkers))
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	row := &campaignMirror{Started: campaignStartedRec{Spec: spec, Created: s.clock()}}
	row.Started.row = row
	if err := st.emit(recCampaignStarted, &row.Started); err != nil {
		writeRefused(w, err)
		return
	}
	accepted := campaignInfoOf(st, row) // before the sweep starts: always "running"
	st.spawn(func() { s.executeCampaign(st, row) })
	writeJSON(w, http.StatusAccepted, accepted)
}

// executeCampaign drives one campaign to settlement as a store task. The
// per-seed observer runs on the campaign's goroutine in seed order, so
// the outcomes (and the records that carry them) advance deterministically
// even though the pool interleaves the underlying runs. The row a client
// reads changes only when apply writes a journaled outcome or state. A
// sweep the store's close cancels journals nothing more, as after a crash.
func (s *Server) executeCampaign(st *store, row *campaignMirror) {
	id, spec := row.Started.ID, row.Started.Spec
	if spec.CheckHook == nil {
		spec.CheckHook = s.campaignHook
	}
	res, err := xcbc.RunCampaignObserved(st.ctx, spec,
		func(out xcbc.CampaignSeedOutcome) {
			if st.ctx.Err() == nil { // else a cancelled seed's error, not an outcome
				st.emit(recCampaignSeed, campaignSeedRec{ID: id, Outcome: out})
			}
		})
	if st.ctx.Err() != nil {
		return
	}
	state, errMsg := settleState(res, err)
	st.emit(recCampaignSettled, campaignSettledRec{ID: id, State: state, Error: errMsg})
}

// handleCampaign reports one campaign's progress — and, once seeds fail,
// the shrunk repros.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request, st *store) {
	if row := found(w, r, st, st.m.Campaigns, "campaign"); row != nil {
		writeJSON(w, http.StatusOK, campaignInfoOf(st, row))
	}
}

// recoverCampaign settles a campaign in flight at the crash as
// "interrupted": its journaled outcomes are the partial result, and the
// sweep is not re-run (generated seeds are cheap to re-sweep explicitly;
// silently burning CPU on restart is not this store's call to make).
func (st *store) recoverCampaign(c *campaignMirror, report *RecoveryReport) {
	report.Campaigns++
	if c.State != "" {
		return
	}
	msg := fmt.Sprintf("interrupted: the server terminated after %d of %d seeds", len(c.Outcomes), c.Started.Spec.Seeds)
	st.emit(recCampaignSettled, campaignSettledRec{ID: c.Started.ID, State: "interrupted", Error: msg})
	report.CampaignsInterrupted++
}
