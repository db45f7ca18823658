package core

import (
	"errors"
	"sort"
	"sync"
	"time"

	"xcbc/internal/depsolve"
	"xcbc/internal/hpl"
	"xcbc/internal/monitor"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
)

// ErrNoScheduler reports a batch operation on a deployment built without a
// batch system (the vendor path with no scheduler selected).
var ErrNoScheduler = errors.New("core: no batch system installed")

// Operations adapts a built Deployment for concurrent day-2 use: one mutex
// serializes every entry point, because the subsystems share a sim.Engine
// and the engine is unsynchronized — two HTTP handlers advancing virtual
// time or submitting jobs at once would otherwise corrupt the event queue.
// The sched and monitor packages carry their own locks for their own state;
// this adapter is what makes the *combination* (scheduler + monitor + power
// + engine) safe behind a control plane.
type Operations struct {
	mu     sync.Mutex
	d      *Deployment
	alerts *monitor.AlertManager
}

// DefaultAlertRules are installed on every Operations: the two conditions
// the paper's campus administrators actually page on.
var DefaultAlertRules = []monitor.Rule{
	{Name: "high-load", Metric: "load_one", Threshold: 0.9},
	{Name: "power-draw", Metric: "power_watts", Threshold: 400},
}

// NewOperations wraps a deployment in its day-2 adapter. Each call creates
// an independent adapter; callers that need mutual exclusion across several
// consumers must share one (the SDK caches one per Deployment).
func NewOperations(d *Deployment) *Operations {
	return &Operations{d: d, alerts: monitor.NewAlertManager(d.Monitor, DefaultAlertRules...)}
}

// monitorInterval is the gmetad poll period, for alert freshness math.
const monitorInterval = sim.Time(time.Minute)

// JobView is an immutable snapshot of one batch job, safe to hold across
// engine advances (unlike *sched.Job, whose fields the manager mutates).
type JobView struct {
	ID        int
	Name      string
	User      string
	Cores     int
	State     string
	Script    string
	Walltime  time.Duration
	Runtime   time.Duration
	Submitted sim.Time
	Started   sim.Time
	Ended     sim.Time
	Nodes     []string
	Requeued  bool
}

// viewOf snapshots a job. o.mu held (the engine cannot advance mid-copy).
func viewOf(j *sched.Job) JobView {
	v := JobView{
		ID: j.ID, Name: j.Name, User: j.User, Cores: j.Cores,
		State: j.State.String(), Script: j.Script,
		Walltime: j.Walltime, Runtime: j.Runtime,
		Submitted: j.SubmitTime, Started: j.StartTime, Ended: j.EndTime,
		Requeued: j.Requeued(),
	}
	for node := range j.Alloc {
		v.Nodes = append(v.Nodes, node)
	}
	sort.Strings(v.Nodes)
	return v
}

// SubmitJob enqueues a batch job and returns its snapshot (the assigned ID
// rides in it). Jobs placed immediately come back already "running".
func (o *Operations) SubmitJob(j *sched.Job) (JobView, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.submit(j); err != nil {
		return JobView{}, err
	}
	return viewOf(j), nil
}

// Submit is SubmitJob for a caller that only needs to know whether the job
// was accepted: it builds no JobView.
func (o *Operations) Submit(j *sched.Job) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.submit(j)
}

// submit enqueues a batch job. o.mu held.
func (o *Operations) submit(j *sched.Job) error {
	if o.d.Batch == nil {
		return ErrNoScheduler
	}
	_, err := o.d.Batch.Submit(j)
	return err
}

// CancelJob removes a queued job or kills a running one.
func (o *Operations) CancelJob(id int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.d.Batch == nil {
		return ErrNoScheduler
	}
	return o.d.Batch.Cancel(id)
}

// Job returns a snapshot of one job across queue, running set, and history.
func (o *Operations) Job(id int) (JobView, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.d.Batch == nil {
		return JobView{}, false
	}
	j, ok := o.d.Batch.Job(id)
	if !ok {
		return JobView{}, false
	}
	return viewOf(j), true
}

// Jobs returns snapshots of every known job: queued (policy order), then
// running (by ID), then finished (completion order).
func (o *Operations) Jobs() []JobView {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.d.Batch == nil {
		return nil
	}
	var out []JobView
	for _, j := range o.d.Batch.Queued() {
		out = append(out, viewOf(j))
	}
	for _, j := range o.d.Batch.Running() {
		out = append(out, viewOf(j))
	}
	for _, j := range o.d.Batch.History() {
		out = append(out, viewOf(j))
	}
	return out
}

// JobCounts returns how many of Jobs() are queued, running and finished,
// without snapshotting any job.
func (o *Operations) JobCounts() (queued, running, done int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.d.Batch == nil {
		return 0, 0, 0
	}
	return o.d.Batch.JobCounts()
}

// JobCount returns len(Jobs()) without snapshotting any job.
func (o *Operations) JobCount() int {
	queued, running, done := o.JobCounts()
	return queued + running + done
}

// FailNode marks a compute node failed — powered off, its running jobs
// requeued, the node out of the schedulable pool — behind the adapter's
// serialization. It is the day-2 fault-injection seam scenario scripts use.
func (o *Operations) FailNode(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.d.Batch == nil {
		return ErrNoScheduler
	}
	return o.d.Batch.NodeFail(name)
}

// Advance runs the deployment forward by dt of simulated time — job
// completions, power transitions, and any scheduled monitor polls fire —
// and returns the new virtual now.
func (o *Operations) Advance(dt time.Duration) sim.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	eng := o.d.Engine
	if dt > 0 {
		eng.RunUntil(eng.Now() + sim.Time(dt))
	}
	return eng.Now()
}

// Now returns the deployment's current virtual time.
func (o *Operations) Now() sim.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.d.Engine.Now()
}

// MetricsSnapshot is one observation of the whole cluster.
type MetricsSnapshot struct {
	At           sim.Time
	Polls        int
	ClusterLoad  float64
	Nodes        []monitor.HostSample // each reporting host's latest sample, by name
	ActiveAlerts []string
}

// SampleMetrics polls every powered-on node at the current virtual time
// (an on-demand gmond round, so a fresh cluster reports without waiting
// for a scheduled poll), evaluates alert rules, and returns the snapshot,
// read from each host's latest row in one pass under the aggregator's
// lock.
func (o *Operations) SampleMetrics() MetricsSnapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.d.Engine.Now()
	o.d.Monitor.Poll(now)
	o.alerts.Evaluate(now, monitorInterval)
	snap := MetricsSnapshot{At: now, ActiveAlerts: o.alerts.Active()}
	snap.Nodes, snap.Polls, snap.ClusterLoad = o.d.Monitor.Latest(make([]monitor.HostSample, 0, o.d.Cluster.NodeCount()))
	return snap
}

// Alerts re-evaluates alert rules at the current virtual time (so host-down
// fires for hosts silent across recent Advances) and returns the currently
// firing alert keys plus the full transition log.
func (o *Operations) Alerts() (active []string, log []monitor.Alert) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.alerts.Evaluate(o.d.Engine.Now(), monitorInterval)
	return o.alerts.Active(), o.alerts.Log()
}

// Validation is the result of an HPL acceptance run against the deployed
// hardware: the analytic model at the memory-sized problem, plus an
// optional small measured LU solve on the host proving the numerics.
type Validation struct {
	N            int
	RpeakGF      float64
	RmaxGF       float64
	Efficiency   float64
	ModelElapsed time.Duration
	Smoke        hpl.MeasuredResult
	SmokeRun     bool
}

// Validate models HPL at the largest problem fitting memFraction of
// cluster memory (0 means the standard 0.8), and, when smokeN > 0, also
// factors a real smokeN×smokeN system on the host and checks the HPL
// residual — the "run HPL before accepting the machine" step.
func (o *Operations) Validate(memFraction float64, smokeN int) (Validation, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.d.Cluster
	n := hpl.ProblemSize(c, memFraction)
	res := hpl.Model(c, n, hpl.ModelParams{})
	v := Validation{
		N:            res.N,
		RpeakGF:      res.RpeakGF,
		RmaxGF:       res.RmaxGF,
		Efficiency:   res.Efficiency,
		ModelElapsed: res.Elapsed,
	}
	if smokeN > 0 {
		workers := c.Frontend.Cores()
		if workers < 1 {
			workers = 1
		}
		if workers > 8 {
			workers = 8
		}
		m, err := hpl.Run(smokeN, 32, workers, 42, nil)
		if err != nil {
			return v, err
		}
		v.Smoke = m
		v.SmokeRun = true
	}
	return v, nil
}

// CheckUpdates runs the paper's periodic update check on every node under
// the given policy; now stamps the notification reports.
func (o *Operations) CheckUpdates(policy depsolve.UpdatePolicy, now time.Time) map[string]*depsolve.Notification {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.d.RunUpdateCheckEverywhere(policy, now)
}
