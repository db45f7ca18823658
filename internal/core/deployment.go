package core

import (
	"context"
	"fmt"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/modules"
	"xcbc/internal/monitor"
	"xcbc/internal/power"
	"xcbc/internal/provision"
	"xcbc/internal/repo"
	"xcbc/internal/rocks"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
	"xcbc/internal/xsede"
)

// BuildEvent is one step of a long-running build, reported through
// Options.Progress. Stage is one of "distribution", "frontend", "compute",
// "wave", "quarantine", "subsystems"; Node is set for per-node stages;
// Packages and Elapsed carry the install cost where the stage has one
// (Elapsed is simulated time).
type BuildEvent struct {
	Stage    string
	Node     string
	Message  string
	Packages int
	Elapsed  time.Duration
}

// Options configure an XCBC build.
type Options struct {
	// Scheduler is one of Schedulers; default "torque".
	Scheduler string
	// OptionalRolls lists Table 1 optional rolls to include; default ganglia
	// and hpc (the rolls the XCBC experience reports always deploy).
	OptionalRolls []string
	// PowerPolicy selects node power management; default AlwaysOn.
	PowerPolicy power.Policy
	// MonitorInterval is the gmetad poll period; default 1 minute.
	MonitorInterval time.Duration
	// Progress, when non-nil, receives a BuildEvent after each build step.
	Progress func(BuildEvent)
	// Parallelism is the compute-install wave width: how many kickstarts
	// overlap, bounded by frontend serving capacity. <= 1 installs
	// sequentially (the seed behavior).
	Parallelism int
	// Retries is how many times a failed node install is re-attempted (with
	// simulated backoff) before the node is quarantined.
	Retries int
	// InstallHook, when non-nil, runs before every node install attempt;
	// an error fails that attempt. Fault-injection seam for tests.
	InstallHook func(node string, attempt int) error
}

func (o Options) emit(ev BuildEvent) {
	if o.Progress != nil {
		o.Progress(ev)
	}
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Scheduler == "" {
		out.Scheduler = "torque"
	}
	if out.OptionalRolls == nil {
		out.OptionalRolls = []string{"ganglia", "hpc"}
	}
	if out.MonitorInterval == 0 {
		out.MonitorInterval = time.Minute
	}
	return out
}

// Deployment is a fully assembled cluster: the hardware plus every running
// subsystem. It is what both the XCBC path and the XNIT path produce.
type Deployment struct {
	Cluster   *cluster.Cluster
	Engine    *sim.Engine
	Batch     *sched.Manager
	Modules   *modules.System
	Monitor   *monitor.Aggregator
	Power     *power.Manager
	Installer *provision.Installer
	Repos     *repo.Set
	Scheduler string

	// MonitorInterval is the gmetad poll period the deployment was built
	// with; the day-2 Operations adapter uses it for alert freshness math.
	MonitorInterval time.Duration

	// InstallDuration is the simulated time the initial build consumed.
	InstallDuration time.Duration
	// PackagesInstalled counts packages placed across all nodes at build.
	PackagesInstalled int
	// Quarantined lists compute nodes that exhausted their install retries
	// and were set aside; they remain in the hardware description but carry
	// no OS.
	Quarantined []string
}

// PreflightXCBC validates that Rocks can provision the cluster at all:
// every node needs a local disk ("Rocks does not support diskless
// installation"). Running it before a build starts lets callers reject an
// impossible request synchronously instead of discovering the constraint
// mid-kickstart.
func PreflightXCBC(c *cluster.Cluster) error {
	if err := c.Validate(); err != nil {
		return err
	}
	for n := range c.All() {
		if !n.HasDisk() {
			return fmt.Errorf("core: XCBC preflight: %w: node %s", provision.ErrDiskless, n.Name)
		}
	}
	return nil
}

// BuildXCBC performs the complete "all at once, from scratch" XCBC build on
// a bare cluster: distribution assembly, frontend install, compute
// kickstarts, module generation, and subsystem startup.
//
//detlint:reached benchmark: BenchmarkUpdateCheck (BENCH_baseline.json), BenchmarkXCBCFromScratch, BenchmarkSchedulerPortability and BenchmarkClusterVerify build through it
func BuildXCBC(eng *sim.Engine, c *cluster.Cluster, opts Options) (*Deployment, error) {
	return BuildXCBCContext(context.Background(), eng, c, opts)
}

// BuildXCBCContext is BuildXCBC with cancellation: the context is checked
// between provisioning waves (a wave, once started, runs to completion, as
// kickstarts do on real hardware — so cancellation never leaves a
// half-kickstarted node). Compute nodes install in waves of
// Options.Parallelism overlapping kickstarts; failed nodes retry with
// backoff and are quarantined rather than aborting the build. Progress
// events are emitted through Options.Progress.
func BuildXCBCContext(ctx context.Context, eng *sim.Engine, c *cluster.Cluster, opts Options) (*Deployment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	if err := PreflightXCBC(c); err != nil {
		return nil, err
	}
	dist, err := BuildDistribution(o.Scheduler, o.OptionalRolls...)
	if err != nil {
		return nil, err
	}
	graph, err := xsedeGraph(o.Scheduler)
	if err != nil {
		return nil, err
	}
	o.emit(BuildEvent{Stage: "distribution",
		Message: fmt.Sprintf("assembled %s (%d rolls)", dist.Name, len(dist.RollNames()))})
	feDB := rocks.NewFrontendDB(dist)
	installer := provision.NewInstaller(c, feDB, graph, "CentOS "+CentOSVersion)
	installer.Hook = o.InstallHook
	start := eng.Now()
	d := &Deployment{
		Cluster:   c,
		Engine:    eng,
		Installer: installer,
		Repos:     repo.NewSet(),
		Scheduler: o.Scheduler,
	}
	feRes, err := installer.InstallFrontend(eng)
	if err != nil {
		return nil, fmt.Errorf("core: XCBC install failed: %w", err)
	}
	d.PackagesInstalled += feRes.Packages
	o.emit(BuildEvent{Stage: "frontend", Node: feRes.Node,
		Packages: feRes.Packages, Elapsed: feRes.Duration,
		Message: "frontend installed from distribution media"})
	if err := installer.DiscoverComputes(); err != nil {
		return nil, fmt.Errorf("core: XCBC install failed: %w", err)
	}
	names := make([]string, 0, len(c.Computes))
	for _, n := range c.Computes {
		names = append(names, n.Name)
	}
	wopts := provision.WaveOptions{Width: o.Parallelism, Retries: o.Retries}
	_, err = installer.InstallComputeWaves(ctx, eng, names, wopts, func(i int, wr *provision.WaveResult) {
		for _, r := range wr.Results {
			d.PackagesInstalled += r.Packages
			o.emit(BuildEvent{Stage: "compute", Node: r.Node,
				Packages: r.Packages, Elapsed: r.Duration, Message: "kickstarted"})
		}
		for _, f := range wr.Failed {
			d.Quarantined = append(d.Quarantined, f.Node)
			o.emit(BuildEvent{Stage: "quarantine", Node: f.Node,
				Message: fmt.Sprintf("quarantined after %d attempt(s): %v", f.Attempts, f.Err)})
		}
		if o.Parallelism > 1 {
			o.emit(BuildEvent{Stage: "wave", Elapsed: wr.Duration,
				Message: fmt.Sprintf("wave %d: %d node(s) kickstarted in parallel", i+1, len(wr.Results))})
		}
	})
	if err != nil {
		return nil, fmt.Errorf("core: XCBC install failed: %w", err)
	}
	d.InstallDuration = (eng.Now() - start).Duration()
	d.finishAssembly(o)
	o.emit(BuildEvent{Stage: "subsystems",
		Message: "batch, modules, monitoring, and power management started"})
	return d, nil
}

// NewVendorDeployment wraps an already-provisioned cluster (the Limulus
// out-of-the-box state) in a Deployment so XNIT can operate on it. The
// vendor stack's scheduler may be empty (no batch system yet) or a name from
// Schedulers.
func NewVendorDeployment(eng *sim.Engine, c *cluster.Cluster, scheduler string, opts Options) (*Deployment, error) {
	o := opts.withDefaults()
	o.Scheduler = scheduler
	d := &Deployment{
		Cluster:   c,
		Engine:    eng,
		Repos:     repo.NewSet(),
		Scheduler: scheduler,
	}
	d.finishAssembly(o)
	return d, nil
}

// finishAssembly starts the subsystems shared by both build paths.
func (d *Deployment) finishAssembly(o Options) {
	d.MonitorInterval = o.MonitorInterval
	if d.Scheduler != "" {
		if policy, ok := sched.PolicyByName(d.Scheduler); ok {
			d.Batch = sched.NewManager(d.Engine, d.Cluster, policy)
		}
	}
	d.Modules = modules.GenerateFromPackages(d.Cluster.Frontend.Packages(),
		CategoryCompilers, CategorySciApps)
	loadFn := func(node string) float64 {
		if d.Batch == nil || node == d.Cluster.Frontend.Name {
			return 0 // the frontend is not in the batch pool
		}
		n, ok := d.Cluster.Lookup(node)
		if !ok || n.Cores() == 0 {
			return 0
		}
		return float64(n.Cores()-d.Batch.FreeCores(node)) / float64(n.Cores())
	}
	d.Monitor = monitor.NewAggregator(d.Cluster, 1024, loadFn)
	d.Power = power.NewManager(d.Engine, d.Cluster, d.Batch, o.PowerPolicy)
}

// RegenerateModules rebuilds the module tree from the frontend's current
// package set (after XNIT installs add software).
func (d *Deployment) RegenerateModules() {
	d.Modules = modules.GenerateFromPackages(d.Cluster.Frontend.Packages(),
		CategoryCompilers, CategorySciApps)
}

// CompatReport checks the frontend against the Stampede reference adjusted
// for the deployment's scheduler.
func (d *Deployment) CompatReport() (*xsede.Report, error) {
	ref := xsede.StampedeReference()
	if d.Scheduler != "" {
		var err error
		ref, err = ref.WithScheduler(d.Scheduler)
		if err != nil {
			return nil, err
		}
	}
	return xsede.CheckNode(ref, d.Cluster.Frontend), nil
}

// CompatCounts returns CompatReport's Passed() and Total() without
// building the report: what a status row needs, read from the frontend's
// current packages and attributes like the report itself.
func (d *Deployment) CompatCounts() (passed, total int, err error) {
	return xsede.CountNode(d.Scheduler, d.Cluster.Frontend)
}
