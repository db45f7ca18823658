package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/modules"
	"xcbc/internal/monitor"
	"xcbc/internal/orchestrator"
	"xcbc/internal/power"
	"xcbc/internal/provision"
	"xcbc/internal/repo"
	"xcbc/internal/rocks"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
	"xcbc/internal/xsede"
)

// Options configure an XCBC build.
type Options struct {
	// Scheduler is one of Schedulers; default "torque".
	Scheduler string
	// OptionalRolls lists Table 1 optional rolls to include; default ganglia
	// and hpc (the rolls the XCBC experience reports always deploy).
	OptionalRolls []string
	// PowerPolicy selects node power management; default AlwaysOn.
	PowerPolicy power.Policy
	// Progress, when non-nil, receives an event after each build step:
	// Stage is one of "distribution", "frontend", "compute", "wave",
	// "quarantine", "subsystems"; Node is set for per-node stages; Packages
	// and Elapsed carry the install cost where the stage has one (Elapsed is
	// simulated time). Seq is left for the journal to assign.
	Progress func(orchestrator.Event)
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

func (o Options) emit(ev orchestrator.Event) {
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

	// InstallDuration is the simulated time the initial build consumed.
	InstallDuration time.Duration
	// PackagesInstalled counts packages placed across all nodes at build.
	PackagesInstalled int
	// Quarantined lists compute nodes that exhausted their install retries
	// and were set aside; they remain in the hardware description but carry
	// no OS.
	Quarantined []string

	opsOnce sync.Once
	ops     *Operations // the day-2 adapter; see Operations
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

// BuildXCBCContext performs the complete "all at once, from scratch" XCBC
// build on a bare cluster: distribution assembly, frontend install, compute
// kickstarts, module generation, and subsystem startup. The context is checked
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
	bp, err := blueprintFor(o.Scheduler, o.OptionalRolls)
	if err != nil {
		return nil, err
	}
	o.emit(orchestrator.Event{Stage: "distribution", Message: bp.message})
	installer := provision.NewInstaller(c, rocks.NewFrontendDB(bp.dist, c), bp.plan, "CentOS "+CentOSVersion)
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
	o.emit(orchestrator.Event{Stage: "frontend", Node: feRes.Node,
		Packages: feRes.Packages, Elapsed: feRes.Duration,
		Message: "frontend installed from distribution media"})
	if err := installer.DiscoverComputes(); err != nil {
		return nil, fmt.Errorf("core: XCBC install failed: %w", err)
	}
	wopts := provision.WaveOptions{Width: o.Parallelism, Retries: o.Retries}
	_, err = installer.InstallComputeWaves(ctx, eng, wopts, func(i int, wr *provision.WaveResult) {
		for _, r := range wr.Results {
			d.PackagesInstalled += r.Packages
			o.emit(orchestrator.Event{Stage: "compute", Node: r.Node,
				Packages: r.Packages, Elapsed: r.Duration, Message: "kickstarted"})
		}
		for _, f := range wr.Failed {
			d.Quarantined = append(d.Quarantined, f.Node)
			o.emit(orchestrator.Event{Stage: "quarantine", Node: f.Node,
				Message: fmt.Sprintf("quarantined after %d attempt(s): %v", f.Attempts, f.Err)})
		}
		if o.Parallelism > 1 {
			o.emit(orchestrator.Event{Stage: "wave", Elapsed: wr.Duration,
				Message: fmt.Sprintf("wave %d: %d node(s) kickstarted in parallel", i+1, len(wr.Results))})
		}
	})
	if err != nil {
		return nil, fmt.Errorf("core: XCBC install failed: %w", err)
	}
	d.InstallDuration = (eng.Now() - start).Duration()
	d.Modules = bp.modules
	d.finishAssembly(o)
	o.emit(orchestrator.Event{Stage: "subsystems",
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
	d.RegenerateModules()
	d.finishAssembly(o)
	return d, nil
}

// finishAssembly starts the subsystems shared by both build paths.
func (d *Deployment) finishAssembly(o Options) {
	if d.Scheduler != "" {
		if policy, ok := sched.PolicyByName(d.Scheduler); ok {
			d.Batch = sched.NewManager(d.Engine, d.Cluster, policy)
		}
	}
	loadFn := func(node int) float64 {
		if d.Batch == nil || node == 0 {
			return 0 // the frontend, first in Cluster.All, is not in the batch pool
		}
		n := d.Cluster.Computes[node-1]
		if n.Cores() == 0 {
			return 0
		}
		return float64(n.Cores()-d.Batch.FreeCores(node-1)) / float64(n.Cores())
	}
	d.Monitor = monitor.NewAggregator(d.Cluster, 1024, loadFn)
	d.Power = power.NewManager(d.Engine, d.Cluster, d.Batch, o.PowerPolicy)
}

// RegenerateModules rebuilds the module tree from the frontend's current
// package set (after XNIT installs add software).
func (d *Deployment) RegenerateModules() {
	d.Modules = modules.FromPackages(d.Cluster.Frontend.Packages().Installed(),
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
