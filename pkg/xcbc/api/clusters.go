package api

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"xcbc/pkg/xcbc"
)

// This file serves the day-2 view of managed deployments: the
// /api/v1/clusters routes. A cluster shares its ID with the deployment
// that built it; /deployments answers "how is the build going", /clusters
// answers "how is the machine running".

// clusterInfo is the JSON shape of one cluster. State always mirrors the
// deployment lifecycle; the operational fields (scheduler, virtual time,
// job counts) are present once the cluster is operable ("ready").
type clusterInfo struct {
	ID          string   `json:"id"`
	Cluster     string   `json:"cluster"`
	Site        string   `json:"site"`
	Nodes       int      `json:"nodes"`
	State       string   `json:"state"`
	Operable    bool     `json:"operable"`
	Scheduler   string   `json:"scheduler,omitempty"`
	VirtualNow  string   `json:"virtual_now,omitempty"`
	JobsQueued  int      `json:"jobs_queued"`
	JobsRunning int      `json:"jobs_running"`
	JobsDone    int      `json:"jobs_done"`
	Quarantined []string `json:"quarantined,omitempty"`
}

func clusterInfoOf(st *store, dep *depMirror) clusterInfo {
	c := &dep.Created
	cl, state, _, _ := st.cluster(dep)
	info := clusterInfo{ID: c.ID, Cluster: c.Cluster, Site: c.Site, Nodes: c.Nodes, State: state}
	if cl == nil {
		return info
	}
	info.Operable = true
	info.Scheduler = cl.Scheduler()
	info.VirtualNow = cl.Now().String()
	info.Quarantined = cl.Deployment().Quarantined()
	info.JobsQueued, info.JobsRunning, info.JobsDone = cl.JobCounts()
	return info
}

// stateBody is the state a day-2 route refuses (409, 422) or a stream ends on.
type stateBody struct {
	BuildError string `json:"build_error,omitempty"`
	Error      string `json:"error,omitempty"`
	Hint       string `json:"hint,omitempty"`
	State      string `json:"state"`
}

// openCluster resolves {id} to an operable cluster (see depMirror.cluster).
// An unknown ID answers 404. One still pending or building answers 409 with
// the current state and a wait hint (clusterctl's retryable exit 2); one
// that settled failed or cancelled answers 422, because waiting will never
// make it operable — the record exists only for inspection and deletion.
func openCluster(w http.ResponseWriter, r *http.Request, st *store) (*xcbc.Cluster, *depMirror, bool) {
	dep := found(w, r, st, st.m.Deployments, "cluster")
	if dep == nil {
		return nil, nil, false
	}
	cl, state, berr, settled := st.cluster(dep)
	if cl == nil {
		id := dep.Created.ID
		body := stateBody{Error: fmt.Sprintf("cluster %s is not operable: deployment state is %q", id, state), State: state}
		status := http.StatusConflict
		if settled {
			// The build settled without producing a cluster; retrying is
			// pointless, so this is not the 409 "wait" contract.
			status = http.StatusUnprocessableEntity
			body.Hint = "the build settled " + state + " and will never be operable; inspect GET /api/" + Version + "/deployments/" + id + ", then DELETE it and create a new deployment"
			body.BuildError = berr
		} else {
			body.Hint = "day-2 operations need state \"ready\"; poll GET /api/" + Version + "/deployments/" + id + " or stream its /events until the build settles"
		}
		writeJSON(w, status, body)
		return nil, nil, false
	}
	return cl, dep, true
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request, st *store) {
	servePage(w, r, "clusters", st, st.m.Deployments, clusterInfoOf)
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request, st *store) {
	if _, dep, ok := openCluster(w, r, st); ok {
		writeJSON(w, http.StatusOK, clusterInfoOf(st, dep))
	}
}

// jobInfo is the JSON shape of one batch job snapshot. Times are virtual,
// rendered as durations since simulation start.
type jobInfo struct {
	ID        int      `json:"id"`
	Name      string   `json:"name,omitempty"`
	User      string   `json:"user,omitempty"`
	Cores     int      `json:"cores"`
	State     string   `json:"state"`
	Script    string   `json:"script,omitempty"`
	Walltime  string   `json:"walltime"`
	Runtime   string   `json:"runtime"`
	Submitted string   `json:"submitted"`
	Started   string   `json:"started,omitempty"`
	Ended     string   `json:"ended,omitempty"`
	Nodes     []string `json:"nodes,omitempty"`
	Requeued  bool     `json:"requeued,omitempty"`
}

func jobInfoOf(j xcbc.JobInfo) jobInfo {
	out := jobInfo{
		ID: j.ID, Name: j.Name, User: j.User, Cores: j.Cores,
		State: j.State, Script: j.Script,
		Walltime:  j.Walltime.String(),
		Runtime:   j.Runtime.String(),
		Submitted: j.Submitted.String(),
		Nodes:     j.Nodes, Requeued: j.Requeued,
	}
	if j.State != xcbc.JobQueued {
		out.Started = j.Started.String()
	}
	if j.State != xcbc.JobQueued && j.State != xcbc.JobRunning {
		out.Ended = j.Ended.String()
	}
	return out
}

// submitJobRequest is the POST /clusters/{id}/jobs body. Durations are Go
// duration strings ("30m", "2h"); a zero walltime defaults to one hour and
// a zero runtime to half the walltime. The journal keeps it without its
// zero fields.
type submitJobRequest struct {
	Name     string `json:"name,omitzero"`
	User     string `json:"user,omitzero"`
	Cores    int    `json:"cores,omitzero"`
	Walltime string `json:"walltime,omitzero"`
	Runtime  string `json:"runtime,omitzero"`
	Script   string `json:"script,omitzero"`
}

// badRequest is an op's request-shape error; its route answers 400.
type badRequest string

func (e badRequest) Error() string { return string(e) }

func parseDurationField(field, v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, badRequest(fmt.Sprintf("%s must be a non-negative Go duration (e.g. \"30m\"): %q", field, v))
	}
	return d, nil
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request, st *store) {
	cl, _, ok := openCluster(w, r, st)
	if !ok {
		return
	}
	jobs := cl.Jobs()
	if state := r.URL.Query().Get("state"); state != "" {
		switch state {
		case xcbc.JobQueued, xcbc.JobRunning, xcbc.JobCompleted, xcbc.JobCancelled, xcbc.JobTimeout:
		default:
			// Reject typos instead of silently matching nothing.
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("unknown state %q (use queued, running, completed, cancelled, or timeout)", state))
			return
		}
		jobs = slices.DeleteFunc(jobs, func(j xcbc.JobInfo) bool { return j.State != state })
	}
	writeJSON(w, http.StatusOK, struct {
		Count int       `json:"count"`
		Jobs  []jobInfo `json:"jobs"`
	}{len(jobs), mapSlice(jobs, jobInfoOf)})
}

// jobIDOf reads the {jid} path segment; anything but a positive integer
// reads as 0, which errJobID refuses.
func jobIDOf(r *http.Request) int {
	id, err := strconv.Atoi(r.PathValue("jid"))
	if err != nil || id < 0 {
		return 0
	}
	return id
}

const errJobID = badRequest("job id must be a positive integer")

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, st *store) {
	cl, _, ok := openCluster(w, r, st)
	if !ok {
		return
	}
	id := jobIDOf(r)
	if id == 0 {
		writeError(w, http.StatusBadRequest, errJobID.Error())
		return
	}
	job, ok := cl.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, jobInfoOf(job))
}

// nodeMetricsInfo and metricsInfo shape the monitoring snapshot.
type nodeMetricsInfo struct {
	Host       string  `json:"host"`
	Load       float64 `json:"load"`
	PowerWatts float64 `json:"power_watts"`
	Cores      int     `json:"cores"`
}

type metricsInfo struct {
	At           string            `json:"at"` // virtual time of the last poll
	Polls        int               `json:"polls"`
	ClusterLoad  float64           `json:"cluster_load"`
	Nodes        []nodeMetricsInfo `json:"nodes"`
	ActiveAlerts []string          `json:"active_alerts"`
}

// handleMetrics renders the last poll: a read, so it takes no store lock
// and journals nothing. The SDK's alert keys are never nil.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, st *store) {
	if cl, _, ok := openCluster(w, r, st); ok {
		m := cl.Metrics()
		writeJSON(w, http.StatusOK, metricsInfo{At: m.At.String(), Polls: m.Polls, ClusterLoad: m.ClusterLoad, ActiveAlerts: m.ActiveAlerts,
			Nodes: mapSlice(m.Nodes, func(n xcbc.NodeMetrics) nodeMetricsInfo { return nodeMetricsInfo(n) })})
	}
}

type alertInfo struct {
	At     string `json:"at"`
	Host   string `json:"host"`
	Rule   string `json:"rule"`
	Firing bool   `json:"firing"`
	Detail string `json:"detail"`
}

// alertsInfo is the GET /alerts body: the firing alerts and the
// transition log.
type alertsInfo struct {
	Active []string    `json:"active"`
	Log    []alertInfo `json:"log"`
}

// handleAlerts renders the alert log the polls wrote, as handleMetrics
// renders the last poll.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request, st *store) {
	if cl, _, ok := openCluster(w, r, st); ok {
		active, log := cl.Alerts()
		writeJSON(w, http.StatusOK, alertsInfo{Active: active, Log: mapSlice(log, func(a xcbc.AlertInfo) alertInfo {
			return alertInfo{At: a.At.String(), Host: a.Host, Rule: a.Rule, Firing: a.Firing, Detail: a.Detail}
		})})
	}
}

// validateRequest tunes POST /clusters/{id}/validate; the zero value uses
// the standard HPL sizing (80% of memory) and a 128×128 measured solve.
type validateRequest struct {
	MemFraction float64 `json:"mem_fraction"`
	SmokeN      *int    `json:"smoke_n"` // nil = default 128, 0 = model only
}

type validateResponse struct {
	N             int     `json:"n"`
	RpeakGF       float64 `json:"rpeak_gflops"`
	RmaxGF        float64 `json:"rmax_gflops"`
	Efficiency    float64 `json:"efficiency"`
	ModelElapsed  string  `json:"model_elapsed"`
	SmokeRun      bool    `json:"smoke_run"`
	SmokeN        int     `json:"smoke_n,omitempty"`
	SmokeGFLOPS   float64 `json:"smoke_gflops,omitempty"`
	SmokeResidual float64 `json:"smoke_residual,omitempty"`
	SmokePass     bool    `json:"smoke_pass"`
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request, st *store) {
	cl, _, ok := openCluster(w, r, st)
	if !ok {
		return
	}
	var req validateRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &req) {
		return
	}
	opts := []xcbc.ValidateOption{}
	if req.MemFraction != 0 {
		if req.MemFraction < 0 || req.MemFraction > 1 {
			writeError(w, http.StatusBadRequest, "mem_fraction must be in (0, 1]")
			return
		}
		opts = append(opts, xcbc.WithMemFraction(req.MemFraction))
	}
	if req.SmokeN != nil {
		if *req.SmokeN < 0 || *req.SmokeN > 1024 {
			writeError(w, http.StatusBadRequest, "smoke_n must be in [0, 1024]")
			return
		}
		opts = append(opts, xcbc.WithSmokeSize(*req.SmokeN))
	}
	v, err := cl.Validate(opts...)
	if err != nil {
		writeError(w, deployErrorStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, validateResponse{
		N: v.N, RpeakGF: v.RpeakGF, RmaxGF: v.RmaxGF, Efficiency: v.Efficiency,
		ModelElapsed: v.ModelElapsed.String(),
		SmokeRun:     v.SmokeRun, SmokeN: v.SmokeN,
		SmokeGFLOPS: v.SmokeGFLOPS, SmokeResidual: v.SmokeResidual, SmokePass: v.SmokePass,
	})
}

// nodeUpdatesInfo and updatesInfo shape the update-check report.
type nodeUpdatesInfo struct {
	Pending int    `json:"pending"`
	Applied int    `json:"applied"`
	Summary string `json:"summary"`
}

type updatesInfo struct {
	Policy       string                     `json:"policy"`
	PendingTotal int                        `json:"pending_total"`
	AppliedTotal int                        `json:"applied_total"`
	Nodes        map[string]nodeUpdatesInfo `json:"nodes"`
}

// updatePolicyOf parses an update-policy name.
func updatePolicyOf(p string) (xcbc.UpdatePolicy, error) {
	switch p {
	case "", "notify":
		return xcbc.UpdateNotify, nil
	case "auto-apply":
		return xcbc.UpdateAutoApply, nil
	case "security-only":
		return xcbc.UpdateSecurityOnly, nil
	}
	return 0, badRequest(fmt.Sprintf("unknown policy %q (use notify, auto-apply, or security-only)", p))
}

// advanceRequest moves the cluster's virtual clock forward — the simulated
// substrate's stand-in for wall-clock time passing, which is what lets a
// REST client observe jobs finishing and power policies acting.
type advanceRequest struct {
	Duration string `json:"duration"`
}

type advanceInfo struct {
	VirtualNow string `json:"virtual_now"`
}

// maxAdvance caps one advance, so that one op cannot spin the event loop
// for unbounded simulated years.
const maxAdvance = 90 * 24 * time.Hour

// handleOp serves the route of one day-2 op kind: it decodes the request
// into the op's journal record, and operate runs it. A submit answers 201,
// the rest 200.
func (s *Server) handleOp(kind string) func(http.ResponseWriter, *http.Request, *store) {
	return func(w http.ResponseWriter, r *http.Request, st *store) {
		cl, dep, ok := openCluster(w, r, st)
		if !ok {
			return
		}
		op, status := clusterOpRec{ID: dep.Created.ID, Op: kind, dep: dep}, http.StatusOK
		switch kind {
		case "job.submit":
			op.Job, status = new(submitJobRequest), http.StatusCreated
			ok = decodeBody(w, r, op.Job)
		case "job.cancel":
			op.JobID = jobIDOf(r)
		case "updates":
			// Auto-apply mutates node package state; the journal keeps the
			// wall-clock instant so a replay applies the same update window.
			op.Policy, op.At = r.URL.Query().Get("policy"), s.clock()
		case "advance":
			var req advanceRequest
			ok = decodeBody(w, r, &req)
			op.Duration = req.Duration
		}
		if !ok {
			return
		}
		body, err := st.operate(cl, &op)
		if err != nil {
			writeRefused(w, err)
			return
		}
		writeJSON(w, status, body)
	}
}

// operate runs op on cl, its deployment's cluster. A read ends there. Any
// other op holds its deployment's op lock from the check that the log takes
// writes until its record is applied, so one deployment's ops, which replay
// alone (rebuild), reach the log in the order they ran. One whose append
// fails after it ran stays live behind the 503 until a restart.
func (st *store) operate(cl *xcbc.Cluster, op *clusterOpRec) (body any, err error) {
	if !op.read() {
		op.dep.opMu.Lock()
		defer op.dep.opMu.Unlock()
		if err := st.refusing(recClusterOp); err != nil {
			return nil, err
		}
	}
	if body, err = runOp(cl, op); err != nil {
		return nil, refusal{deployErrorStatus(err), err}
	}
	if !op.read() {
		err = st.emit(recClusterOp, op)
	}
	return body, err
}

// runOp checks one day-2 op, runs it against cl and renders the body its
// route answers; a submit also records the job ID it got, and an update
// that applies packages the compat counts it left. The op's route and
// recovery's replay both call it, so a replayed op is checked and run
// exactly as it was live, in its deployment's original order: job IDs, the
// virtual clock and the polls it ran land where they were. This package's
// tests hold an op mid-run through it.
var runOp = func(cl *xcbc.Cluster, op *clusterOpRec) (any, error) {
	switch op.Op {
	case "job.submit":
		req := op.Job
		if req == nil {
			return nil, badRequest("job.submit without a job")
		}
		spec := xcbc.JobSpec{Name: req.Name, User: req.User, Cores: req.Cores, Script: req.Script}
		var err error
		if spec.Walltime, err = parseDurationField("walltime", req.Walltime); err != nil {
			return nil, err
		}
		if spec.Runtime, err = parseDurationField("runtime", req.Runtime); err != nil {
			return nil, err
		}
		job, err := cl.SubmitJob(spec)
		if err != nil {
			return nil, err
		}
		op.JobID = job.ID
		return jobInfoOf(job), nil
	case "job.cancel":
		if op.JobID <= 0 {
			return nil, errJobID
		}
		if err := cl.CancelJob(op.JobID); err != nil {
			return nil, err
		}
		job, _ := cl.Job(op.JobID)
		return jobInfoOf(job), nil
	case "updates":
		policy, err := updatePolicyOf(op.Policy)
		if err != nil {
			return nil, err
		}
		check := cl.CheckUpdates(policy, op.At)
		if policy != xcbc.UpdateNotify { // it applies packages: the row's compat counts follow
			op.CompatPassed, op.CompatTotal, _ = cl.Deployment().CompatCounts()
		}
		out := updatesInfo{
			Policy:       policy.String(),
			PendingTotal: check.PendingTotal(),
			AppliedTotal: check.AppliedTotal(),
			Nodes:        make(map[string]nodeUpdatesInfo, len(check.ByNode)),
		}
		for node, nu := range check.ByNode {
			out.Nodes[node] = nodeUpdatesInfo{Pending: nu.Pending, Applied: nu.Applied, Summary: nu.Summary}
		}
		return out, nil
	case "advance":
		d, err := time.ParseDuration(op.Duration)
		if err != nil || d <= 0 {
			return nil, badRequest(fmt.Sprintf("duration must be a positive Go duration (e.g. \"30m\"): %q", op.Duration))
		}
		if d > maxAdvance {
			return nil, badRequest(fmt.Sprintf("duration exceeds the %v per-request cap", maxAdvance))
		}
		return advanceInfo{VirtualNow: cl.Advance(d).String()}, nil
	}
	return nil, fmt.Errorf("unknown op %q", op.Op)
}
