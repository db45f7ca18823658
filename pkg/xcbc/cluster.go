package xcbc

import (
	"time"

	"xcbc/internal/core"
	"xcbc/internal/monitor"
	"xcbc/internal/sched"
)

// Cluster is a live, operable cluster: the day-2 surface over a ready
// Deployment. Where Builder/Handle cover day 1 (build → ready), Cluster
// covers everything after — batch jobs, monitoring, alerting, HPL
// validation, and software currency — which is what the paper's campus
// sites actually run.
//
// Obtain one from Handle.Cluster once a deployment is ready, from
// Builder.Open to build and open in one call, from Deployment.Open, or
// from FleetMember.Cluster. All methods are safe for concurrent use: every
// operation is serialized through the deployment's own day-2 adapter,
// because the subsystems share an unsynchronized discrete-event engine.
// Every Cluster of one deployment holds that one adapter, so they stay
// mutually safe.
//
// Monitoring runs on the virtual clock, as Ganglia's gmetad polls gmond on
// a fixed period: handing out a deployment's first Cluster polls every
// node once and arms a poll every minute of virtual time, each followed by
// an alert evaluation. Metrics and Alerts read what the last poll saw. An
// armed engine never runs out of events, so once a deployment has handed
// out a Cluster, drive its engine with Advance (or Engine().RunUntil), never
// Engine().Run, which would not return.
type Cluster struct {
	d   *Deployment
	ops *core.Operations
}

// openCluster is the one constructor of a Cluster: it arms the
// deployment's poll tick, once per deployment, at the current virtual
// time, before any day-2 op can run.
func openCluster(d *Deployment, ops *core.Operations) *Cluster {
	ops.StartPolling()
	return &Cluster{d: d, ops: ops}
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
// (the simulation's stand-in for "how long the science actually takes");
// a negative one is an impossible request.
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
type JobInfo = core.JobView

// SubmitJob enqueues a batch job and returns its snapshot with the
// assigned ID. A job that fits free cores starts immediately ("running");
// otherwise it waits in policy order. Fails with ErrNoScheduler on a
// cluster without a batch system and ErrBadJob on an impossible request.
func (c *Cluster) SubmitJob(spec JobSpec) (JobInfo, error) {
	j := &sched.Job{
		Name: spec.Name, User: spec.User, Cores: spec.Cores,
		Walltime: spec.Walltime, Runtime: spec.Runtime, Script: spec.Script,
	}
	return c.ops.SubmitJob(j)
}

// CancelJob removes a queued job or kills a running one; finished or
// unknown IDs fail with ErrUnknownJob.
func (c *Cluster) CancelJob(id int) error {
	return c.ops.CancelJob(id)
}

// Job returns a snapshot of one job across queue, running set, and
// history.
func (c *Cluster) Job(id int) (JobInfo, bool) {
	return c.ops.Job(id)
}

// Jobs returns snapshots of every known job: queued (policy order), then
// running (by ID), then finished (completion order).
func (c *Cluster) Jobs() []JobInfo { return c.ops.Jobs() }

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
type NodeMetrics = monitor.HostSample

// ClusterMetrics is one observation of the whole cluster.
type ClusterMetrics = core.MetricsSnapshot

// Metrics returns what the last poll saw: each powered-on node's sample,
// and the alerts firing after it. It polls nothing; Advance runs the
// polls.
func (c *Cluster) Metrics() ClusterMetrics {
	return c.ops.Metrics()
}

// AlertInfo is one alert transition: raised or cleared.
type AlertInfo struct {
	At     time.Duration // virtual time of the transition
	Host   string
	Rule   string
	Firing bool
	Detail string
}

// Alerts returns the alert keys firing at the last poll (empty, not nil,
// when none) plus the transition log, evaluating nothing: the polls that Advance runs raise
// and clear alerts. The rules watch load and power draw, and a host whose
// gmond stays silent for three polls trips host-down.
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
type Validation = core.Validation

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
	return c.ops.Validate(cfg.memFraction, cfg.smokeN)
}

// CheckUpdates runs the paper's periodic update check on every node under
// the given policy over the cluster's attached repositories; now stamps
// the notification reports.
func (c *Cluster) CheckUpdates(policy UpdatePolicy, now time.Time) UpdateCheck {
	return updateCheck(policy, c.ops.CheckUpdates(policy.internal(), now))
}
