package api

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"xcbc/pkg/xcbc"
)

// This file serves the fleet-scale surface: /api/v1/fleets mirrors
// pkg/xcbc's Fleet and RunScenario. A fleet is created (and by default
// provisioned) asynchronously with POST; scenario runs against a fleet are
// asynchronous jobs of their own, one at a time per fleet so the seeded
// trace stays deterministic.

// Caps on a single creation request so one POST cannot commit the control
// plane to unbounded memory or CPU: a fleet's member count, the compute
// nodes of one cluster (a fleet member or a deployment), and a fleet's
// product of the two (total simulated nodes) are all bounded.
const (
	maxFleetMembers    = 2048
	maxNodesPerCluster = 256
	maxFleetTotalNodes = 16384
)

// createFleetRequest provisions a new fleet of simulated clusters. The
// journal keeps it without its zero fields: an absent provision, not an
// explicit false.
type createFleetRequest struct {
	Name        string `json:"name,omitzero"`
	Members     int    `json:"members,omitzero"`
	Cluster     string `json:"cluster,omitzero"`
	Nodes       int    `json:"nodes,omitzero"`
	Scheduler   string `json:"scheduler,omitzero"`
	Parallelism int    `json:"parallelism,omitzero"`
	Retries     int    `json:"retries,omitzero"`
	Workers     int    `json:"workers,omitzero"`
	// Provision defaults to true; set false to create the fleet resource
	// without starting builds (a scenario's provision phase can start them
	// later).
	Provision *bool `json:"provision,omitzero"`
}

// fleetMemberInfo is the JSON shape of one fleet member.
type fleetMemberInfo struct {
	ID    string `json:"id"`
	Index int    `json:"index"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// fleetInfo is the JSON shape of one fleet.
type fleetInfo struct {
	ID        string            `json:"id"`
	Name      string            `json:"name"`
	Created   time.Time         `json:"created"`
	Status    xcbc.FleetStatus  `json:"status"`
	Settled   bool              `json:"settled"`
	Scenarios int               `json:"scenarios"`
	Members   []fleetMemberInfo `json:"members,omitempty"`
}

func fleetInfoOf(st *store, f *fleetMirror, withMembers bool) fleetInfo {
	fl := f.fleet()
	st.idx.RLock()
	runs := len(f.Runs)
	st.idx.RUnlock()
	status, c := fl.Status(), &f.Created
	info := fleetInfo{
		ID: c.ID, Name: c.Name, Created: c.Created,
		Status: status, Settled: status.Settled(), Scenarios: runs,
	}
	if withMembers {
		info.Members = mapSlice(fl.Members(), func(m *xcbc.FleetMember) fleetMemberInfo {
			mi := fleetMemberInfo{ID: m.ID(), Index: m.Index(), State: string(m.Status())}
			if err := m.Err(); err != nil {
				mi.Error = err.Error()
			}
			return mi
		})
	}
	return info
}

func (s *Server) handleFleets(w http.ResponseWriter, r *http.Request) {
	st := s.tenant(r).store
	servePage(w, r, "fleets", st, st.m.Fleets, func(st *store, f *fleetMirror) fleetInfo {
		return fleetInfoOf(st, f, false)
	})
}

// handleCreateFleet validates the request synchronously, then starts
// provisioning in the background and answers 202 Accepted with the fleet
// in its initial state. A create the store refuses cancels the fleet.
func (s *Server) handleCreateFleet(w http.ResponseWriter, r *http.Request) {
	var req createFleetRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Members > maxFleetMembers {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("members exceeds the per-fleet cap of %d", maxFleetMembers))
		return
	}
	if req.Nodes > maxNodesPerCluster {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("nodes exceeds the per-member cap of %d", maxNodesPerCluster))
		return
	}
	// Catalog machines top out below 256 computes, so nodes==0 (as
	// cataloged) is already covered by the member cap.
	if req.Nodes > 0 && req.Members > 0 && req.Members*req.Nodes > maxFleetTotalNodes {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("members*nodes exceeds the fleet-wide cap of %d simulated nodes", maxFleetTotalNodes))
		return
	}
	st := s.tenant(r).store
	fl, err := xcbc.NewFleet(fleetSpecOf(req))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Builds must outlive this request; they stop via DELETE.
	provisioned := req.Provision == nil || *req.Provision
	if provisioned {
		if err := fl.Provision(context.Background()); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	f := &fleetMirror{fl: fl, Provisioned: provisioned, Created: fleetCreatedRec{
		Name: req.Name, Req: req, Created: s.clock(), Provisioned: provisioned}}
	f.Created.row = f
	if err := st.emit(recFleetCreated, &f.Created); err != nil {
		fl.Cancel()
		writeRefused(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, fleetInfoOf(st, f, true))
}

// fleetSpecOf turns a create request into an SDK fleet spec; the create
// handler and recovery share it so a recovered fleet is sized exactly as
// the original was.
func fleetSpecOf(req createFleetRequest) xcbc.FleetSpec {
	return xcbc.FleetSpec{
		Name: req.Name, Members: req.Members, Cluster: req.Cluster,
		Nodes: req.Nodes, Scheduler: req.Scheduler,
		Parallelism: req.Parallelism, Retries: req.Retries, Workers: req.Workers,
	}
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	st := s.tenant(r).store
	if f := found(w, r, st, st.m.Fleets, "fleet"); f != nil {
		writeJSON(w, http.StatusOK, fleetInfoOf(st, f, true))
	}
}

// handleDeleteFleet mirrors the deployment contract: an unsettled fleet is
// cancelled (202, record kept so the cancellation can be observed); a
// settled one is removed (204). A fleet with a scenario run still
// executing cannot be removed — deleting it would orphan the run and its
// trace — so that answers 409 until the run settles.
func (s *Server) handleDeleteFleet(w http.ResponseWriter, r *http.Request) {
	st := s.tenant(r).store
	f := found(w, r, st, st.m.Fleets, "fleet")
	if f == nil {
		return
	}
	fl := f.fleet() // a first use provisions, so before emit
	switch err := st.emit(recFleetDeleted, &fleetDeletedRec{ID: f.Created.ID}); {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, errUnsettled):
		fl.Cancel()
		writeJSON(w, http.StatusAccepted, fleetInfoOf(st, f, false))
	default:
		writeRefused(w, err)
	}
}

// runScenarioRequest starts a scenario against a fleet: either a built-in
// by name, or an inline scenario document.
type runScenarioRequest struct {
	Name     string          `json:"name"`     // built-in scenario name
	Scenario json.RawMessage `json:"scenario"` // or an inline script
}

// scenarioRunInfo is the JSON shape of one scenario run. Events carries
// the trace slice requested via ?cursor=N once the run settles; the server
// appends it from trace (see writeRunInfo) rather than copying it in.
type scenarioRunInfo struct {
	ID         string              `json:"id"`
	Scenario   string              `json:"scenario"`
	State      string              `json:"state"`
	Created    time.Time           `json:"created"`
	Error      string              `json:"error,omitempty"`
	Passed     bool                `json:"passed"`
	Violations []string            `json:"violations,omitempty"`
	Stats      *xcbc.ScenarioStats `json:"stats,omitempty"`
	Events     []xcbc.TraceEvent   `json:"events,omitempty"`
	NextCursor int                 `json:"next_cursor"`

	trace *xcbc.ScenarioResult // with events: whose events [start, NextCursor) ride along
	start int
}

func runInfoOf(st *store, run *runMirror, withEvents bool, pg page) scenarioRunInfo {
	st.idx.RLock()
	info := scenarioRunInfo{
		ID: run.Started.RunID, Scenario: run.Started.Name, State: cmp.Or(run.State, "running"),
		Created: run.Started.Created, Error: run.Error,
	}
	result := run.Result
	st.idx.RUnlock()
	if result != nil {
		info.Passed = result.Passed()
		info.Violations = result.Violations()
		st := result.Stats()
		info.Stats = &st
		info.NextCursor = result.TraceLen()
		if withEvents {
			info.trace = result
			info.start, info.NextCursor = pg.window(result.TraceLen())
		}
	}
	return info
}

// writeRunInfo answers 200 with one run: what writeJSON gives it with
// Events holding its trace window, but with the window — nearly all of a
// page's bytes — appended by ScenarioResult.AppendTrace in front of the
// next_cursor that closes the object, instead of copied out and reflected
// over.
func writeRunInfo(w http.ResponseWriter, info scenarioRunInfo) {
	body, err := json.Marshal(info)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding run: "+err.Error())
		return
	}
	buf := listBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if info.trace != nil && info.start < info.NextCursor {
		tail := bytes.LastIndex(body, []byte(`,"next_cursor":`))
		buf.Write(body[:tail])
		buf.WriteString(`,"events":`)
		buf.Write(info.trace.AppendTrace(buf.AvailableBuffer(), info.start, info.NextCursor))
		body = body[tail:]
	}
	buf.Write(body)
	buf.WriteByte('\n')
	writeBuffered(w, buf)
}

// handleRunScenario starts one scenario run on a fleet: 202 Accepted with
// the run in state "running". One run at a time per fleet — concurrent
// scenarios would interleave day-2 operations and break the seeded trace —
// so a second request while one is live answers 409 Conflict.
func (s *Server) handleRunScenario(w http.ResponseWriter, r *http.Request) {
	st := s.tenant(r).store
	f := found(w, r, st, st.m.Fleets, "fleet")
	if f == nil {
		return
	}
	var req runScenarioRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var sc *xcbc.Scenario
	var err error
	switch {
	case req.Name != "" && len(req.Scenario) > 0:
		writeError(w, http.StatusBadRequest, "give either a built-in name or an inline scenario, not both")
		return
	case req.Name != "":
		sc, err = xcbc.BuiltinScenario(req.Name)
		if errors.Is(err, xcbc.ErrUnknownScenario) {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
	case len(req.Scenario) > 0:
		sc, err = xcbc.LoadScenario(req.Scenario)
	default:
		writeError(w, http.StatusBadRequest, "name or scenario is required")
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	fl := f.fleet()
	if sc.Members() != fl.Len() {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("scenario wants %d members but fleet %s has %d", sc.Members(), f.Created.ID, fl.Len()))
		return
	}
	if sc.RequiresFreshFleet() && fl.Provisioned() {
		writeError(w, http.StatusBadRequest,
			"scenario arms kickstart faults; run it on a fleet created with \"provision\": false whose builds have not started")
		return
	}
	doc, err := sc.JSON()
	if err != nil {
		doc = req.Scenario // inline doc as submitted; never nil for builtins
	}
	run := &runMirror{Started: scenarioStartedRec{
		FleetID: f.Created.ID, Name: sc.Name(), Scenario: doc, Created: s.clock()}}
	run.Started.row = run
	if err := st.emit(recScenarioStarted, &run.Started); err != nil {
		writeRefused(w, err)
		return
	}
	// Render the 202 before the run starts, so it always says "running"
	// however quickly a small scenario settles.
	accepted := runInfoOf(st, run, false, page{})
	st.spawn(func() { s.executeRun(st, f, run, sc, nil) })
	writeJSON(w, http.StatusAccepted, accepted)
}

// executeRun drives one scenario run to settlement and returns the run's
// error. The live handler spawns it as a store task; recovery calls it
// synchronously, with a replay target, to re-run a scenario that was in
// flight at a crash — in that case the regenerated trace's rolling hash
// must reproduce the recorded hash at the recorded cursor, or the run
// settles as "error" rather than presenting a trace the crashed server
// never produced. A run the store's close cancels journals no settlement.
func (s *Server) executeRun(st *store, f *fleetMirror, run *runMirror, sc *xcbc.Scenario, target *replayTarget) error {
	fl := f.fleet()
	var obs func(xcbc.TraceEvent)
	var got uint64
	var reached bool
	if st.log != nil {
		// Checkpoints exist for replay, and only a log replays.
		th := newTraceHash()
		obs = func(ev xcbc.TraceEvent) {
			cursor, sum := th.add(ev)
			if target != nil && cursor == target.cursor {
				got, reached = sum, true
			}
			// A checkpoint: recovery keeps only the last (cursor, hash), so
			// every event is hashed and one in checkpointEvery journaled.
			if cursor%checkpointEvery == 0 {
				st.emit(recScenarioProgress, scenarioProgressRec{
					FleetID: run.Started.FleetID, RunID: run.Started.RunID, Cursor: cursor, Hash: sum,
				})
			}
		}
	}
	result, err := fl.RunScenarioObserved(st.ctx, sc, obs)
	if err != nil && st.ctx.Err() != nil {
		return err // the next Open replays it, as after a crash
	}
	if err == nil && target != nil && target.cursor > 0 && (!reached || got != target.hash) {
		err = fmt.Errorf("%w at recorded cursor %d", errReplayDiverged, target.cursor)
		result = nil
	}
	state := "failed"
	switch {
	case err != nil:
		state = "error"
	case result.Passed():
		state = "passed"
	}
	rec := scenarioSettledRec{FleetID: run.Started.FleetID, RunID: run.Started.RunID, State: state, Result: result}
	if err != nil {
		rec.Error = err.Error()
	}
	// The row settles, freeing the fleet, once apply writes the journaled
	// outcome; if a provision phase built the members, fleet.provisioned rides
	// in its batch, so recovery re-provisions before restoring results.
	batch := []entry{{recScenarioSettled, rec}}
	if fl.Provisioned() {
		batch = append(batch, entry{recFleetProvisioned, fleetProvisionedRec{ID: run.Started.FleetID}})
	}
	st.emitAll(batch...)
	return err
}

// handleScenarioRuns lists a fleet's runs. Run sN is the fleet's Nth, so a
// page is a window of Runs, the cursor an offset into it, and an empty
// page's next cursor the cursor, as every listing's.
func (s *Server) handleScenarioRuns(w http.ResponseWriter, r *http.Request) {
	st := s.tenant(r).store
	f := found(w, r, st, st.m.Fleets, "fleet")
	if f == nil {
		return
	}
	pg, ok := parsePage(w, r)
	if !ok {
		return
	}
	st.idx.RLock()
	start, end := pg.window(len(f.Runs))
	runs := f.Runs[start:end]
	st.idx.RUnlock()
	writeList(w, "runs", mapSlice(runs, func(run *runMirror) scenarioRunInfo {
		return runInfoOf(st, run, false, page{})
	}), max(pg.cursor, end))
}

// handleScenarioRun reports one run; ?cursor=N selects which trace events
// ride along once the run settles (pass back next_cursor to page).
func (s *Server) handleScenarioRun(w http.ResponseWriter, r *http.Request) {
	st := s.tenant(r).store
	f := found(w, r, st, st.m.Fleets, "fleet")
	if f == nil {
		return
	}
	st.idx.RLock()
	run := f.run(r.PathValue("sid"))
	st.idx.RUnlock()
	if run == nil {
		writeError(w, http.StatusNotFound, "unknown scenario run")
		return
	}
	if pg, ok := parsePage(w, r); ok {
		writeRunInfo(w, runInfoOf(st, run, true, pg))
	}
}

// builtinInfo is one row of GET /api/v1/scenarios; the built-ins are fixed
// for the life of the process, so newServer renders the rows once.
type builtinInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Members     int    `json:"members"`
	Seed        int64  `json:"seed"`
}

// handleScenarios lists the built-in scenarios a client can POST by name.
// The list is immutable, so the cursor is a plain offset into it.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	pg, ok := parsePage(w, r)
	if !ok {
		return
	}
	start, end := pg.window(len(s.builtins))
	writeList(w, "scenarios", s.builtins[start:end], end)
}
