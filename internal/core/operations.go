package core

import (
	"errors"
	"sync"
	"time"

	"xcbc/internal/depsolve"
	"xcbc/internal/hpl"
	"xcbc/internal/monitor"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
)

// Core's refusals; the SDK re-exports each under the same name.
var (
	// ErrNoScheduler reports a batch operation on a deployment built
	// without a batch system (the vendor path with no scheduler selected).
	ErrNoScheduler = errors.New("core: no batch system installed")
	// ErrUnknownScheduler reports a scheduler that is not one of Schedulers.
	ErrUnknownScheduler = errors.New("core: unknown scheduler")
	// ErrUnknownRoll reports a name that is not one of OptionalRollNames.
	ErrUnknownRoll = errors.New("core: unknown optional roll")
	// ErrUnknownProfile reports a package profile absent from Profiles.
	ErrUnknownProfile = errors.New("core: unknown package profile")
	// ErrJobsRunning reports a scheduler change while jobs still run.
	ErrJobsRunning = errors.New("core: jobs still running")
	// ErrNoRepos reports an install on a deployment with no enabled
	// repository.
	ErrNoRepos = errors.New("core: no enabled repositories")
)

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
	polled sim.Time          // when poll last ran
	gmetad func(*sim.Engine) // the armed poll tick; nil until StartPolling
}

// DefaultAlertRules are installed on every Operations: the two conditions
// the paper's campus administrators actually page on.
var DefaultAlertRules = []monitor.Rule{
	{Name: "high-load", Metric: "load_one", Threshold: 0.9},
	{Name: "power-draw", Metric: "power_watts", Threshold: 400},
}

// Operations returns the deployment's day-2 adapter, created on first use.
// Every consumer gets this one adapter, so its mutex serializes them all.
func (d *Deployment) Operations() *Operations {
	d.opsOnce.Do(func() {
		d.ops = &Operations{d: d, alerts: monitor.NewAlertManager(d.Monitor, DefaultAlertRules...)}
	})
	return d.ops
}

// monitorInterval is the gmetad poll period, for alert freshness math.
const monitorInterval = sim.Time(time.Minute)

// StartPolling arms gmetad on the deployment's engine, once: it polls at
// the current virtual time, so a fresh cluster reports, and then every
// monitorInterval as Advance (or an update that installs packages) moves
// the clock. Each poll evaluates the alert rules, as Ganglia's gmetad
// feeds its alerting. An armed engine never runs out of events, so
// nothing may call Engine.Run on it afterwards; drive it with RunUntil.
func (o *Operations) StartPolling() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.gmetad != nil {
		return
	}
	// The tick runs inside the engine, which only this adapter advances,
	// so o.mu is held whenever it fires.
	o.gmetad = func(e *sim.Engine) {
		o.poll(e.Now())
		e.After(time.Duration(monitorInterval), "gmetad-poll", o.gmetad)
	}
	eng := o.d.Engine
	o.poll(eng.Now())
	eng.After(time.Duration(monitorInterval), "gmetad-poll", o.gmetad)
}

// JobView is an immutable snapshot of one batch job, safe to hold across
// engine advances (unlike *sched.Job, whose fields the manager mutates).
// Times are virtual, as durations since simulation start.
type JobView struct {
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

// viewOf snapshots a job. o.mu held (the engine cannot advance mid-copy).
func (o *Operations) viewOf(j *sched.Job) JobView {
	v := JobView{
		ID: j.ID, Name: j.Name, User: j.User, Cores: j.Cores,
		State: j.State.String(), Script: j.Script,
		Walltime: j.Walltime, Runtime: j.Runtime,
		Submitted: j.SubmitTime.Duration(), Started: j.StartTime.Duration(),
		Ended: j.EndTime.Duration(), Requeued: j.Requeued(),
	}
	if len(j.Alloc) > 0 {
		v.Nodes = make([]string, len(j.Alloc))
		for i, s := range j.Alloc { // in name order already
			v.Nodes[i] = o.d.Cluster.Computes[s.Node].Name
		}
	}
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
	return o.viewOf(j), nil
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
	return o.viewOf(j), true
}

// Jobs returns snapshots of every known job: queued (policy order), then
// running (by ID), then finished (completion order). It never returns nil.
func (o *Operations) Jobs() []JobView {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.d.Batch == nil {
		return []JobView{}
	}
	queued, running, done := o.d.Batch.JobCounts()
	out := make([]JobView, 0, queued+running+done)
	for _, j := range o.d.Batch.Queued() {
		out = append(out, o.viewOf(j))
	}
	for _, j := range o.d.Batch.Running() {
		out = append(out, o.viewOf(j))
	}
	for _, j := range o.d.Batch.History() {
		out = append(out, o.viewOf(j))
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
	At           time.Duration        // virtual time of the last poll
	Polls        int                  // total poll rounds so far
	ClusterLoad  float64              // mean load_one across reporting hosts
	Nodes        []monitor.HostSample // each reporting host's latest sample, by name; nil when none reports
	ActiveAlerts []string             // firing alert keys, "host/rule"; empty, not nil, when none
}

// poll is one gmetad round at now: every powered-on node is sampled and
// the alert rules are evaluated against the new rows. o.mu held.
func (o *Operations) poll(now sim.Time) {
	o.d.Monitor.Poll(now)
	o.alerts.Evaluate(now, monitorInterval)
	o.polled = now
}

// SampleMetrics polls every powered-on node at the current virtual time
// (an on-demand gmond round, as a scenario's metrics phase takes one) and
// returns the snapshot.
func (o *Operations) SampleMetrics() MetricsSnapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.poll(o.d.Engine.Now())
	return o.snapshot()
}

// Metrics returns the snapshot of the last poll, taking none.
func (o *Operations) Metrics() MetricsSnapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.snapshot()
}

// snapshot reads each host's latest row in one pass under the aggregator's
// lock. o.mu held.
func (o *Operations) snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{At: o.polled.Duration(), ActiveAlerts: o.alerts.Active()}
	snap.Nodes, snap.Polls, snap.ClusterLoad = o.d.Monitor.Latest(make([]monitor.HostSample, 0, o.d.Cluster.NodeCount()))
	if len(snap.Nodes) == 0 {
		snap.Nodes = nil
	}
	return snap
}

// Alerts returns the alerts firing at the last poll and the full
// transition log, evaluating nothing.
func (o *Operations) Alerts() (active []string, log []monitor.Alert) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.alerts.Active(), o.alerts.Log()
}

// Validation is the result of an HPL acceptance run against the deployed
// hardware: the analytic model at the memory-sized problem, plus an
// optional small measured LU solve on the host proving the numerics. The
// Smoke fields stay zero unless SmokeRun.
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
		m, err := hpl.Run(smokeN, 32, workers, 42)
		if err != nil {
			return v, err
		}
		v.SmokeRun, v.SmokeN, v.SmokeGFLOPS = true, m.N, m.GFLOPS
		v.SmokeResidual, v.SmokePass = m.Residual, m.Pass
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
