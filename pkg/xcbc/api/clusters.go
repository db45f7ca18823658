package api

import (
	"fmt"
	"net/http"
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

func (s *Server) clusterInfoOf(dep *deployment) clusterInfo {
	c := &dep.row.Created
	info := clusterInfo{
		ID:      c.ID,
		Cluster: c.Cluster,
		Site:    c.Site,
		Nodes:   c.Nodes,
		State:   dep.state(),
	}
	cl, err := dep.cluster()
	if err != nil {
		return info
	}
	info.Operable = true
	info.Scheduler = cl.Scheduler()
	info.VirtualNow = cl.Now().String()
	info.Quarantined = cl.Deployment().Quarantined()
	info.JobsQueued, info.JobsRunning, info.JobsDone = cl.JobCounts()
	return info
}

// openCluster resolves {id} to an operable cluster. An unknown ID answers
// 404. A deployment still pending or building answers 409 Conflict with
// the current state and a wait hint (clusterctl turns that into exit 2,
// retryable); one that settled failed or cancelled answers 422, because
// waiting will never make it operable — the record exists only for
// inspection and deletion.
func (s *Server) openCluster(w http.ResponseWriter, r *http.Request) (*xcbc.Cluster, *deployment, *tenant, bool) {
	tn := s.tenant(r)
	dep, ok := tn.deployments.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown cluster")
		return nil, nil, nil, false
	}
	cl, err := dep.cluster()
	if err != nil {
		id, st := dep.row.Created.ID, dep.state()
		body := map[string]string{
			"error": fmt.Sprintf("cluster %s is not operable: deployment state is %q", id, st),
			"state": st,
		}
		status := http.StatusConflict
		if dep.terminal() {
			// The build settled without producing a cluster; retrying is
			// pointless, so this is not the 409 "wait" contract.
			status = http.StatusUnprocessableEntity
			body["hint"] = "the build settled " + st + " and will never be operable; inspect GET /api/" + Version + "/deployments/" + id + ", then DELETE it and create a new deployment"
			if berr := dep.errMsg(); berr != "" {
				body["build_error"] = berr
			}
		} else {
			body["hint"] = "day-2 operations need state \"ready\"; poll GET /api/" + Version + "/deployments/" + id + " or stream its /events until the build settles"
		}
		writeJSON(w, status, body)
		return nil, nil, nil, false
	}
	return cl, dep, tn, true
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	servePage(w, r, "clusters", s.tenant(r).deployments, s.clusterInfoOf)
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	_, dep, _, ok := s.openCluster(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.clusterInfoOf(dep))
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

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	cl, _, _, ok := s.openCluster(w, r)
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
		filtered := jobs[:0]
		for _, j := range jobs {
			if j.State == state {
				filtered = append(filtered, j)
			}
		}
		jobs = filtered
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(jobs), "jobs": mapSlice(jobs, jobInfoOf)})
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

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	cl, _, _, ok := s.openCluster(w, r)
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
	At           string            `json:"at"` // virtual time of the sample
	Polls        int               `json:"polls"`
	ClusterLoad  float64           `json:"cluster_load"`
	Nodes        []nodeMetricsInfo `json:"nodes"`
	ActiveAlerts []string          `json:"active_alerts"`
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

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	cl, _, _, ok := s.openCluster(w, r)
	if !ok {
		return
	}
	var req validateRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &req) {
		return
	}
	opts := []xcbc.ValidateOption{}
	if req.MemFraction != 0 {
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
// into the op's journal record, runs it with runOp, and journals it once
// it ran. A submit answers 201, the rest 200.
func (s *Server) handleOp(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cl, dep, tn, ok := s.openCluster(w, r)
		if !ok {
			return
		}
		op, status := clusterOpRec{Op: kind}, http.StatusOK
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
		body, err := runOp(cl, &op)
		if err != nil {
			writeError(w, deployErrorStatus(err), err.Error())
			return
		}
		op.ID = dep.row.Created.ID
		tn.store.emit(recClusterOp, op)
		writeJSON(w, status, body)
	}
}

// runOp checks one day-2 op, runs it against cl and renders the body its
// route answers; a submit also records the job ID it got. The routes and
// recovery's replay both call it, so a replayed op is checked and run
// exactly as it was live, in its original order: job IDs, poll counts and
// the virtual clock land where they were. Metrics and alerts reads are
// ops too: a poll bumps the poll counter, and reading alerts evaluates the
// rules at the current virtual time, which can raise host-down.
func runOp(cl *xcbc.Cluster, op *clusterOpRec) (any, error) {
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
	case "metrics":
		m := cl.Metrics()
		out := metricsInfo{
			At: m.At.String(), Polls: m.Polls, ClusterLoad: m.ClusterLoad,
			Nodes:        mapSlice(m.Nodes, func(n xcbc.NodeMetrics) nodeMetricsInfo { return nodeMetricsInfo(n) }),
			ActiveAlerts: m.ActiveAlerts,
		}
		if out.ActiveAlerts == nil {
			out.ActiveAlerts = []string{}
		}
		return out, nil
	case "alerts":
		active, log := cl.Alerts()
		if active == nil {
			active = []string{}
		}
		return alertsInfo{Active: active, Log: mapSlice(log, func(a xcbc.AlertInfo) alertInfo {
			return alertInfo{At: a.At.String(), Host: a.Host, Rule: a.Rule,
				Firing: a.Firing, Detail: a.Detail}
		})}, nil
	case "updates":
		policy, err := updatePolicyOf(op.Policy)
		if err != nil {
			return nil, err
		}
		check := cl.CheckUpdates(policy, op.At)
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
