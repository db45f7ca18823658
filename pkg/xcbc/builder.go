package xcbc

import (
	"context"
	"fmt"

	"xcbc/internal/cluster"
	"xcbc/internal/core"
	"xcbc/internal/provision"
	"xcbc/internal/rpm"
)

// Builder deploys a cluster. Start validates the request synchronously,
// then runs the build as an asynchronous job on a bounded worker pool and
// returns a Handle for polling, event streaming, and cancellation. Deploy
// is the synchronous convenience wrapper: Start plus Wait. Open is Deploy
// plus Deployment.Open: build the cluster and hand back its operable
// day-2 resource in one call.
//
// Builds honor cancellation between provisioning waves; progress reaches
// both the Handle's journal and any WithProgress callback.
type Builder interface {
	Start(ctx context.Context) (*Handle, error)
	Deploy(ctx context.Context) (*Deployment, error)
	Open(ctx context.Context) (*Cluster, error)
}

// open runs the synchronous build path and opens the Cluster resource.
func open(ctx context.Context, b Builder) (*Cluster, error) {
	d, err := b.Deploy(ctx)
	if err != nil {
		return nil, err
	}
	return d.Open(), nil
}

// deploy runs the synchronous path shared by all builders. On ctx
// cancellation it does not just abandon the wait: the job's context
// derives from ctx so the build is already stopping, and deploy blocks
// until it actually has — the seed contract, and what lets callers reuse
// a shared engine (WithEngine) the moment Deploy returns.
func deploy(ctx context.Context, b Builder) (*Deployment, error) {
	h, err := b.Start(ctx)
	if err != nil {
		return nil, err
	}
	d, err := h.Wait(ctx)
	if err == nil {
		return d, nil
	}
	<-h.Done() // no-op when the error was the job's own terminal failure
	if jerr := h.Err(); jerr != nil {
		return nil, jerr
	}
	if d, ok := h.Deployment(); ok {
		return d, nil
	}
	return nil, err
}

// NewXCBC returns a builder for the bare-metal path: assemble the Rocks
// distribution with the XSEDE roll, install the frontend, kickstart every
// compute node in waves of WithParallelism overlapping installs, and start
// the subsystems — "all at once, from scratch".
func NewXCBC(opts ...Option) Builder {
	return &xcbcBuilder{cfg: newConfig(opts)}
}

type xcbcBuilder struct{ cfg *config }

func (b *xcbcBuilder) Start(ctx context.Context) (*Handle, error) {
	cfg := b.cfg
	if cfg.err != nil {
		return nil, cfg.err
	}
	scheduler := cfg.scheduler
	if scheduler == "" {
		scheduler = "torque"
	}
	rolls := cfg.rolls
	if !cfg.rollsSet {
		rolls = []string{"ganglia", "hpc"}
	}
	if err := core.CheckRecipe(scheduler, rolls); err != nil {
		return nil, err
	}
	policy, err := cfg.powerPolicy.internal()
	if err != nil {
		return nil, err
	}
	hw, err := cfg.resolveHardware()
	if err != nil {
		return nil, err
	}
	// Pre-flight the Rocks diskless constraint synchronously so an
	// impossible request fails at Start, not minutes into an async build.
	if err := core.PreflightXCBC(hw); err != nil {
		return nil, err
	}
	eng := cfg.resolveEngine()
	// Always pass a non-nil slice: core treats nil OptionalRolls as "use
	// defaults", but WithRolls() with no names means "no optional rolls".
	opts := core.Options{
		Scheduler:     scheduler,
		OptionalRolls: append(make([]string, 0, len(rolls)), rolls...),
		PowerPolicy:   policy,
		Parallelism:   cfg.parallelism,
		Retries:       cfg.retries,
		InstallHook:   cfg.installHook,
	}
	return start(ctx, hw, func(jctx context.Context, emit func(Event) int) (*Deployment, error) {
		o := opts
		o.Progress = func(ev Event) {
			ev.Seq = emit(ev)
			cfg.emit(ev)
		}
		d, err := core.BuildXCBCContext(jctx, eng, hw, o)
		if err != nil {
			return nil, err
		}
		return &Deployment{core: d}, nil
	}), nil
}

func (b *xcbcBuilder) Deploy(ctx context.Context) (*Deployment, error) {
	return deploy(ctx, b)
}

func (b *xcbcBuilder) Open(ctx context.Context) (*Cluster, error) { return open(ctx, b) }

// NewVendor returns a builder for a vendor-managed machine: the OS and a
// minimal package set installed by vendor tooling (which, unlike Rocks,
// handles diskless nodes), no XSEDE stack. Its Deployment is what NewXNIT
// adopts.
func NewVendor(opts ...Option) Builder {
	return &vendorBuilder{cfg: newConfig(opts)}
}

type vendorBuilder struct{ cfg *config }

// defaultBasePackages is the EL6-era ship state the paper's Limulus
// arrives with.
func defaultBasePackages() []*rpm.Package {
	return []*rpm.Package{
		rpm.NewPackage("kernel", "2.6.32-431.el6.sl", rpm.ArchX86_64).Build(),
		rpm.NewPackage("openssh-server", "5.3p1-94.el6", rpm.ArchX86_64).Build(),
		rpm.NewPackage("environment-modules", "3.2.10-2.el6", rpm.ArchX86_64).Build(),
	}
}

// prepare validates the vendor request and returns the build function.
// The vendor "build" is the machine's ship state — one engine advance, no
// per-node kickstarts — so unlike the XCBC path it is cheap enough to run
// either inline (Deploy) or as a job (Start).
func (b *vendorBuilder) prepare() (*cluster.Cluster, func(ctx context.Context, emit func(Event) int) (*Deployment, error), error) {
	cfg := b.cfg
	if cfg.err != nil {
		return nil, nil, cfg.err
	}
	if cfg.schedulerSet && cfg.scheduler != "" {
		if err := core.CheckRecipe(cfg.scheduler, nil); err != nil {
			return nil, nil, err
		}
	}
	policy, err := cfg.powerPolicy.internal()
	if err != nil {
		return nil, nil, err
	}
	hw, err := cfg.resolveHardware()
	if err != nil {
		return nil, nil, err
	}
	eng := cfg.resolveEngine()
	osName := cfg.vendorOS
	if osName == "" {
		osName = "Scientific Linux 6.5"
	}
	build := func(ctx context.Context, emit func(Event) int) (*Deployment, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !cfg.preProvisioned {
			base := cfg.basePackages
			if base == nil {
				base = defaultBasePackages()
			}
			if err := provision.VendorProvision(eng, hw, osName, base); err != nil {
				return nil, err
			}
			ev := Event{Stage: "vendor", Packages: len(base) * hw.NodeCount(),
				Message: fmt.Sprintf("vendor tooling installed %s on %d nodes", osName, hw.NodeCount())}
			ev.Seq = emit(ev)
			cfg.emit(ev)
		}
		d, err := core.NewVendorDeployment(eng, hw, cfg.scheduler, core.Options{PowerPolicy: policy})
		if err != nil {
			return nil, err
		}
		return &Deployment{core: d}, nil
	}
	return hw, build, nil
}

func (b *vendorBuilder) Start(ctx context.Context) (*Handle, error) {
	hw, build, err := b.prepare()
	if err != nil {
		return nil, err
	}
	return start(ctx, hw, build), nil
}

// Deploy runs the vendor build inline, without occupying a worker slot, so
// callers composing it with async builds (the control plane's xnit path)
// cannot deadlock against a saturated pool.
func (b *vendorBuilder) Deploy(ctx context.Context) (*Deployment, error) {
	_, build, err := b.prepare()
	if err != nil {
		return nil, err
	}
	return build(ctx, func(ev Event) int { return ev.Seq })
}

func (b *vendorBuilder) Open(ctx context.Context) (*Cluster, error) { return open(ctx, b) }

// NewXNIT returns a builder that converts an existing deployment in place:
// configure the XSEDE Yum repository with the recommended priority, install
// the requested profiles and packages, and optionally change the scheduler
// — all without touching the pre-existing cluster setup. Deploy returns
// the same Deployment, converted.
func NewXNIT(existing *Deployment, opts ...Option) Builder {
	return &xnitBuilder{existing: existing, cfg: newConfig(opts)}
}

type xnitBuilder struct {
	existing *Deployment
	cfg      *config
}

func (b *xnitBuilder) Start(ctx context.Context) (*Handle, error) {
	cfg := b.cfg
	d := b.existing
	if cfg.err != nil {
		return nil, cfg.err
	}
	if d == nil || d.core == nil {
		return nil, fmt.Errorf("%w: NewXNIT needs the deployment to convert", ErrNilDeployment)
	}
	if cfg.schedulerSet && cfg.scheduler != "" {
		if err := core.CheckRecipe(cfg.scheduler, nil); err != nil {
			return nil, err
		}
	}
	if err := core.CheckProfiles(cfg.profiles...); err != nil {
		return nil, err
	}
	return start(ctx, d.core.Cluster, func(jctx context.Context, emit func(Event) int) (*Deployment, error) {
		record := func(ev Event) {
			ev.Seq = emit(ev)
			cfg.emit(ev)
		}
		// Idempotent repo configuration: a retry after a failed or cancelled
		// adoption must not duplicate the xsede entry.
		xnit := d.core.Repos.Lookup(XNITRepoID)
		if xnit == nil {
			var err error
			xnit, err = core.NewXNITRepository()
			if err != nil {
				return nil, err
			}
			core.ConfigureXNIT(d.core, xnit)
		}
		record(Event{Stage: "repo", Packages: xnit.Len(),
			Message: fmt.Sprintf("configured %s repository at priority %d", XNITRepoID, XNITPriority)})
		for _, profile := range cfg.profiles {
			if err := jctx.Err(); err != nil {
				return nil, fmt.Errorf("xcbc: XNIT adoption cancelled before profile %s: %w", profile, err)
			}
			n, err := d.core.InstallProfile(profile)
			if err != nil {
				return nil, err
			}
			record(Event{Stage: "profile", Packages: n,
				Message: fmt.Sprintf("installed profile %s cluster-wide", profile)})
		}
		if cfg.schedulerSet && cfg.scheduler != "" && cfg.scheduler != d.core.Scheduler {
			if err := jctx.Err(); err != nil {
				return nil, fmt.Errorf("xcbc: XNIT adoption cancelled before scheduler change: %w", err)
			}
			if err := d.ChangeScheduler(cfg.scheduler); err != nil {
				return nil, err
			}
			record(Event{Stage: "scheduler",
				Message: fmt.Sprintf("scheduler changed to %s", cfg.scheduler)})
		}
		if len(cfg.packages) > 0 {
			if err := jctx.Err(); err != nil {
				return nil, fmt.Errorf("xcbc: XNIT adoption cancelled before package installs: %w", err)
			}
			n, err := d.InstallPackages(cfg.packages...)
			if err != nil {
				return nil, err
			}
			record(Event{Stage: "packages", Packages: n,
				Message: fmt.Sprintf("installed %d requested packages cluster-wide", n)})
		}
		return d, nil
	}), nil
}

func (b *xnitBuilder) Deploy(ctx context.Context) (*Deployment, error) {
	return deploy(ctx, b)
}

func (b *xnitBuilder) Open(ctx context.Context) (*Cluster, error) { return open(ctx, b) }
