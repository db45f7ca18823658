package xcbc

import (
	"time"

	"xcbc/internal/core"
	"xcbc/internal/sched"
)

// Cluster is a live, operable cluster: the day-2 surface over a ready
// Deployment. Where Builder/Handle cover day 1 (build → ready), Cluster
// covers everything after — batch jobs, monitoring, alerting, HPL
// validation, and software currency — which is what the paper's campus
// sites actually run.
//
// Obtain one from Handle.Cluster once a deployment is ready, from
// Builder.Open to build and open in one call, or from Deployment.Open.
// All methods are safe for concurrent use: every operation is serialized
// through one adapter per Deployment, because the subsystems share an
// unsynchronized discrete-event engine. Two Cluster values opened from the
// same Deployment share that adapter and stay mutually safe.
type Cluster struct {
	d   *Deployment
	ops *core.Operations
}

// Deployment returns the underlying deployment for build-time facts
// (install duration, quarantined nodes) and subsystem escape hatches.
func (c *Cluster) Deployment() *Deployment { return c.d }

// Name returns the cluster's hardware name.
func (c *Cluster) Name() string { return c.d.core.Cluster.Name }

// Scheduler returns the active job manager name, "" if none.
func (c *Cluster) Scheduler() string { return c.d.core.Scheduler }

// JobSpec describes a batch job to submit. Cores is required; a zero
// Walltime defaults to one hour and a zero Runtime to half the walltime
// (the simulation's stand-in for "how long the science actually takes").
type JobSpec struct {
	Name     string
	User     string
	Cores    int
	Walltime time.Duration
	Runtime  time.Duration
	Script   string
}

// JobState labels a job's position in its lifecycle, as reported by
// JobInfo.State: "queued", "running", "completed", "cancelled", "timeout".
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobCompleted = "completed"
	JobCancelled = "cancelled"
	JobTimeout   = "timeout"
)

// JobInfo is an immutable snapshot of one batch job. Times are virtual
// (durations since simulation start).
type JobInfo struct {
	ID        int
	Name      string
	User      string
	Cores     int
	State     string
	Script    string
	Walltime  time.Duration
	Runtime   time.Duration
	Submitted time.Duration
	Started   time.Duration
	Ended     time.Duration
	Nodes     []string // allocation, sorted; nil while queued
	Requeued  bool     // a node failure bounced it back to the queue
}

func jobInfoOf(v core.JobView) JobInfo {
	return JobInfo{
		ID: v.ID, Name: v.Name, User: v.User, Cores: v.Cores,
		State: v.State, Script: v.Script,
		Walltime: v.Walltime, Runtime: v.Runtime,
		Submitted: v.Submitted.Duration(), Started: v.Started.Duration(),
		Ended: v.Ended.Duration(), Nodes: v.Nodes, Requeued: v.Requeued,
	}
}

// SubmitJob enqueues a batch job and returns its snapshot with the
// assigned ID. A job that fits free cores starts immediately ("running");
// otherwise it waits in policy order. Fails with ErrNoScheduler on a
// cluster without a batch system and ErrBadJob on an impossible request.
func (c *Cluster) SubmitJob(spec JobSpec) (JobInfo, error) {
	j := &sched.Job{
		Name: spec.Name, User: spec.User, Cores: spec.Cores,
		Walltime: spec.Walltime, Runtime: spec.Runtime, Script: spec.Script,
	}
	v, err := c.ops.SubmitJob(j)
	if err != nil {
		return JobInfo{}, translate(err)
	}
	return jobInfoOf(v), nil
}

// CancelJob removes a queued job or kills a running one; finished or
// unknown IDs fail with ErrUnknownJob.
func (c *Cluster) CancelJob(id int) error {
	return translate(c.ops.CancelJob(id))
}

// Job returns a snapshot of one job across queue, running set, and
// history.
func (c *Cluster) Job(id int) (JobInfo, bool) {
	v, ok := c.ops.Job(id)
	if !ok {
		return JobInfo{}, false
	}
	return jobInfoOf(v), true
}

// Jobs returns snapshots of every known job: queued (policy order), then
// running (by ID), then finished (completion order).
func (c *Cluster) Jobs() []JobInfo {
	views := c.ops.Jobs()
	out := make([]JobInfo, 0, len(views))
	for _, v := range views {
		out = append(out, jobInfoOf(v))
	}
	return out
}

// JobCounts returns how many of Jobs() are queued, running and finished
// (completed, cancelled or timed out), without copying any job.
func (c *Cluster) JobCounts() (queued, running, done int) {
	return c.ops.JobCounts()
}

// Advance runs the cluster forward by dt of simulated time: jobs finish,
// power policies act, scheduled monitor polls fire. It returns the new
// virtual now as a duration since simulation start.
func (c *Cluster) Advance(dt time.Duration) time.Duration {
	return c.ops.Advance(dt).Duration()
}

// Now returns the cluster's current virtual time.
func (c *Cluster) Now() time.Duration { return c.ops.Now().Duration() }

// NodeMetrics is the latest monitoring sample set for one host.
type NodeMetrics struct {
	Host       string
	Load       float64 // fraction of cores busy, [0,1]
	PowerWatts float64
	Cores      int
}

// ClusterMetrics is one observation of the whole cluster.
type ClusterMetrics struct {
	At           time.Duration // virtual sample time
	Polls        int           // total poll rounds so far
	ClusterLoad  float64       // mean load_one across reporting hosts
	Nodes        []NodeMetrics
	ActiveAlerts []string // firing alert keys, "host/rule"
}

func metricsOf(s core.MetricsSnapshot) ClusterMetrics {
	out := ClusterMetrics{
		At: s.At.Duration(), Polls: s.Polls, ClusterLoad: s.ClusterLoad,
		ActiveAlerts: s.ActiveAlerts,
	}
	if len(s.Nodes) > 0 {
		out.Nodes = make([]NodeMetrics, 0, len(s.Nodes))
	}
	for _, n := range s.Nodes {
		out.Nodes = append(out.Nodes, NodeMetrics(n))
	}
	return out
}

// Metrics polls every powered-on node at the current virtual time (an
// on-demand gmond round — no need to wait for a scheduled poll), evaluates
// alert rules, and returns the snapshot.
func (c *Cluster) Metrics() ClusterMetrics {
	return metricsOf(c.ops.SampleMetrics())
}

// AlertInfo is one alert transition: raised or cleared.
type AlertInfo struct {
	At     time.Duration // virtual time of the transition
	Host   string
	Rule   string
	Firing bool
	Detail string
}

// Alerts re-evaluates alert rules (so a host silent across recent
// Advances trips host-down) and returns the firing alert keys plus the
// transition log. The rules watch load and power draw.
func (c *Cluster) Alerts() (active []string, log []AlertInfo) {
	act, raw := c.ops.Alerts()
	log = make([]AlertInfo, 0, len(raw))
	for _, a := range raw {
		log = append(log, AlertInfo{At: a.At.Duration(), Host: a.Host,
			Rule: a.Rule, Firing: a.Firing, Detail: a.Detail})
	}
	return act, log
}

// Validation reports an HPL acceptance run: the analytic Rmax model at the
// largest problem fitting cluster memory, plus (when requested) a small
// measured LU solve on the host whose residual check proves the numerics.
type Validation struct {
	N            int     // modelled problem size
	RpeakGF      float64 // theoretical peak, GFLOPS
	RmaxGF       float64 // modelled sustained, GFLOPS
	Efficiency   float64 // RmaxGF / RpeakGF
	ModelElapsed time.Duration

	SmokeRun      bool // a measured solve was performed
	SmokeN        int
	SmokeGFLOPS   float64
	SmokeResidual float64
	SmokePass     bool
}

// ValidateOption tunes Validate.
type ValidateOption func(*validateConfig)

type validateConfig struct {
	memFraction float64
	smokeN      int
}

// WithMemFraction sets the fraction of total cluster memory the modelled
// problem may use; default 0.8 (the standard HPL sizing rule).
func WithMemFraction(f float64) ValidateOption {
	return func(c *validateConfig) { c.memFraction = f }
}

// WithSmokeSize sets the size of the measured on-host LU solve; default
// 128, 0 disables the measured run (model only).
func WithSmokeSize(n int) ValidateOption {
	return func(c *validateConfig) { c.smokeN = n }
}

// Validate runs the HPL acceptance check the paper recommends before
// putting a cluster into service.
func (c *Cluster) Validate(opts ...ValidateOption) (Validation, error) {
	cfg := validateConfig{memFraction: 0.8, smokeN: 128}
	for _, o := range opts {
		o(&cfg)
	}
	v, err := c.ops.Validate(cfg.memFraction, cfg.smokeN)
	if err != nil {
		return Validation{}, translate(err)
	}
	out := Validation{
		N: v.N, RpeakGF: v.RpeakGF, RmaxGF: v.RmaxGF,
		Efficiency: v.Efficiency, ModelElapsed: v.ModelElapsed,
	}
	if v.SmokeRun {
		out.SmokeRun = true
		out.SmokeN = v.Smoke.N
		out.SmokeGFLOPS = v.Smoke.GFLOPS
		out.SmokeResidual = v.Smoke.Residual
		out.SmokePass = v.Smoke.Pass
	}
	return out, nil
}

// CheckUpdates runs the paper's periodic update check on every node under
// the given policy over the cluster's attached repositories; now stamps
// the notification reports.
func (c *Cluster) CheckUpdates(policy UpdatePolicy, now time.Time) UpdateCheck {
	notes := c.ops.CheckUpdates(policy.internal(), now)
	out := UpdateCheck{Policy: policy, ByNode: make(map[string]NodeUpdates, len(notes))}
	for node, n := range notes { //detlint:ordered map-to-map rebuild under distinct keys; Summary is pure
		out.ByNode[node] = NodeUpdates{Pending: len(n.Pending), Applied: len(n.Applied),
			Summary: n.Summary()}
	}
	return out
}
