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

func parseDurationField(field, v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("%s must be a non-negative Go duration (e.g. \"30m\"): %q", field, v)
	}
	return d, nil
}

// jobSpecOf turns a submit request into an SDK job spec; the live submit
// handler and recovery's op replay share it so a replayed submission is
// validated and shaped exactly as the original was.
func jobSpecOf(req submitJobRequest) (xcbc.JobSpec, error) {
	spec := xcbc.JobSpec{Name: req.Name, User: req.User, Cores: req.Cores, Script: req.Script}
	var err error
	if spec.Walltime, err = parseDurationField("walltime", req.Walltime); err != nil {
		return spec, err
	}
	if spec.Runtime, err = parseDurationField("runtime", req.Runtime); err != nil {
		return spec, err
	}
	return spec, nil
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	cl, dep, tn, ok := s.openCluster(w, r)
	if !ok {
		return
	}
	var req submitJobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec, err := jobSpecOf(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := cl.SubmitJob(spec)
	if err != nil {
		writeError(w, deployErrorStatus(err), err.Error())
		return
	}
	tn.store.emit(recClusterOp, clusterOpRec{ID: dep.row.Created.ID, Op: "job.submit", Job: &req, JobID: job.ID})
	writeJSON(w, http.StatusCreated, jobInfoOf(job))
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

// parseJobID reads the {jid} path segment.
func parseJobID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("jid"))
	if err != nil || id <= 0 {
		writeError(w, http.StatusBadRequest, "job id must be a positive integer")
		return 0, false
	}
	return id, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	cl, _, _, ok := s.openCluster(w, r)
	if !ok {
		return
	}
	id, ok := parseJobID(w, r)
	if !ok {
		return
	}
	job, ok := cl.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, jobInfoOf(job))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	cl, dep, tn, ok := s.openCluster(w, r)
	if !ok {
		return
	}
	id, ok := parseJobID(w, r)
	if !ok {
		return
	}
	if err := cl.CancelJob(id); err != nil {
		writeError(w, deployErrorStatus(err), err.Error())
		return
	}
	tn.store.emit(recClusterOp, clusterOpRec{ID: dep.row.Created.ID, Op: "job.cancel", JobID: id})
	job, _ := cl.Job(id)
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

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cl, dep, tn, ok := s.openCluster(w, r)
	if !ok {
		return
	}
	// A metrics request polls the nodes (bumping the poll counter), so it
	// is a recorded, replayed mutation like any other day-2 op.
	m := cl.Metrics()
	tn.store.emit(recClusterOp, clusterOpRec{ID: dep.row.Created.ID, Op: "metrics"})
	out := metricsInfo{
		At: m.At.String(), Polls: m.Polls, ClusterLoad: m.ClusterLoad,
		Nodes:        make([]nodeMetricsInfo, 0, len(m.Nodes)),
		ActiveAlerts: m.ActiveAlerts,
	}
	if out.ActiveAlerts == nil {
		out.ActiveAlerts = []string{}
	}
	for _, n := range m.Nodes {
		out.Nodes = append(out.Nodes, nodeMetricsInfo(n))
	}
	writeJSON(w, http.StatusOK, out)
}

type alertInfo struct {
	At     string `json:"at"`
	Host   string `json:"host"`
	Rule   string `json:"rule"`
	Firing bool   `json:"firing"`
	Detail string `json:"detail"`
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	cl, dep, tn, ok := s.openCluster(w, r)
	if !ok {
		return
	}
	// Reading alerts re-evaluates the rules at the current virtual time (and
	// can raise host-down), so like a metrics poll it is a replayed mutation.
	active, log := cl.Alerts()
	tn.store.emit(recClusterOp, clusterOpRec{ID: dep.row.Created.ID, Op: "alerts"})
	if active == nil {
		active = []string{}
	}
	out := mapSlice(log, func(a xcbc.AlertInfo) alertInfo {
		return alertInfo{At: a.At.String(), Host: a.Host, Rule: a.Rule,
			Firing: a.Firing, Detail: a.Detail}
	})
	writeJSON(w, http.StatusOK, map[string]any{"active": active, "log": out})
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

// updatePolicyOf parses an update-policy name; the live handler and
// recovery's op replay share it.
func updatePolicyOf(p string) (xcbc.UpdatePolicy, error) {
	switch p {
	case "", "notify":
		return xcbc.UpdateNotify, nil
	case "auto-apply":
		return xcbc.UpdateAutoApply, nil
	case "security-only":
		return xcbc.UpdateSecurityOnly, nil
	}
	return 0, fmt.Errorf("unknown policy %q (use notify, auto-apply, or security-only)", p)
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	cl, dep, tn, ok := s.openCluster(w, r)
	if !ok {
		return
	}
	p := r.URL.Query().Get("policy")
	policy, err := updatePolicyOf(p)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Auto-apply mutates node package state; record the wall-clock instant
	// so a recovery replay re-applies the same update window.
	now := s.clock()
	check := cl.CheckUpdates(policy, now)
	tn.store.emit(recClusterOp, clusterOpRec{ID: dep.row.Created.ID, Op: "updates", Policy: p, At: now})
	out := updatesInfo{
		Policy:       policy.String(),
		PendingTotal: check.PendingTotal(),
		AppliedTotal: check.AppliedTotal(),
		Nodes:        make(map[string]nodeUpdatesInfo, len(check.ByNode)),
	}
	for node, nu := range check.ByNode {
		out.Nodes[node] = nodeUpdatesInfo{Pending: nu.Pending, Applied: nu.Applied, Summary: nu.Summary}
	}
	writeJSON(w, http.StatusOK, out)
}

// advanceRequest moves the cluster's virtual clock forward — the simulated
// substrate's stand-in for wall-clock time passing, which is what lets a
// REST client observe jobs finishing and power policies acting.
type advanceRequest struct {
	Duration string `json:"duration"`
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	cl, dep, tn, ok := s.openCluster(w, r)
	if !ok {
		return
	}
	var req advanceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	d, err := time.ParseDuration(req.Duration)
	if err != nil || d <= 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("duration must be a positive Go duration (e.g. \"30m\"): %q", req.Duration))
		return
	}
	// Cap a single advance so one request cannot spin the event loop for
	// unbounded simulated years.
	const maxAdvance = 90 * 24 * time.Hour
	if d > maxAdvance {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("duration exceeds the %v per-request cap", maxAdvance))
		return
	}
	now := cl.Advance(d)
	tn.store.emit(recClusterOp, clusterOpRec{ID: dep.row.Created.ID, Op: "advance", Duration: req.Duration})
	writeJSON(w, http.StatusOK, map[string]string{"virtual_now": now.String()})
}
