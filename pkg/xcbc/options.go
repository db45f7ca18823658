package xcbc

import (
	"fmt"

	"xcbc/internal/cluster"
	"xcbc/internal/orchestrator"
	"xcbc/internal/power"
	"xcbc/internal/rpm"
	"xcbc/internal/sim"
)

// Event is one step of a long-running deployment, delivered through
// WithProgress and Handle.Events. Stage names: "distribution", "frontend",
// "compute", "wave", "quarantine", "subsystems" (XCBC path); "vendor"
// (vendor path); "repo", "profile", "scheduler", "packages" (XNIT path).
// Elapsed is simulated time. Seq is the event's position in the
// deployment's journal — monotonically increasing, usable as a resume
// cursor with Handle.Events.
type Event = orchestrator.Event

// PowerPolicy selects node power management by name.
type PowerPolicy string

// Power policies.
const (
	PowerAlwaysOn PowerPolicy = "always-on"
	PowerOnDemand PowerPolicy = "on-demand"
)

func (p PowerPolicy) internal() (power.Policy, error) {
	switch p {
	case "", PowerAlwaysOn:
		return power.AlwaysOn, nil
	case PowerOnDemand:
		return power.OnDemand, nil
	}
	return power.AlwaysOn, wrapName(ErrUnknownPowerPolicy, string(p))
}

// config accumulates options for any of the three builders; each Deploy
// reads the fields relevant to its path.
type config struct {
	clusterName  string
	hardware     *cluster.Cluster
	engine       *sim.Engine
	scheduler    string
	schedulerSet bool
	rolls        []string
	rollsSet     bool
	powerPolicy  PowerPolicy
	nodeCount    int
	progress     func(Event)
	parallelism  int
	retries      int
	installHook  func(node string, attempt int) error

	vendorOS       string
	basePackages   []*rpm.Package
	preProvisioned bool

	profiles []string
	packages []string

	err error // first option-construction error, surfaced at Deploy
}

func (c *config) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *config) emit(ev Event) {
	if c.progress != nil {
		c.progress(ev)
	}
}

// Option configures a builder.
type Option func(*config)

// WithCluster selects hardware from the catalog by name (see Clusters()).
func WithCluster(name string) Option {
	return func(c *config) { c.clusterName = name }
}

// WithHardware supplies an explicit hardware description instead of a
// catalog name. The cluster is used as-is (escape hatch for custom
// machines).
func WithHardware(hw *cluster.Cluster) Option {
	return func(c *config) { c.hardware = hw }
}

// WithEngine shares a simulation engine across deployments (campus and
// national ends of a bridging scenario, for example). A fresh engine is
// created when omitted.
func WithEngine(eng *sim.Engine) Option {
	return func(c *config) { c.engine = eng }
}

// WithScheduler selects the job manager: "torque", "slurm" or "sge". The XCBC
// default is "torque"; on the vendor path an empty default means no batch
// system; on the XNIT path it requests an in-place scheduler change.
func WithScheduler(name string) Option {
	return func(c *config) { c.scheduler = name; c.schedulerSet = true }
}

// WithRolls selects the optional Rocks rolls of Table 1 to include. The
// default is ganglia and hpc. Passing no names builds the bare base +
// XSEDE distribution.
func WithRolls(names ...string) Option {
	return func(c *config) { c.rolls = names; c.rollsSet = true }
}

// WithPowerPolicy selects node power management; default PowerAlwaysOn.
func WithPowerPolicy(p PowerPolicy) Option {
	return func(c *config) { c.powerPolicy = p }
}

// WithNodeCount resizes the compute side of the selected hardware to n
// nodes before deployment: extra nodes are cloned from the machine's last
// compute node, surplus nodes are removed. The frontend is not counted.
func WithNodeCount(n int) Option {
	return func(c *config) {
		if n <= 0 {
			c.fail(wrapName(ErrBadNodeCount, fmt.Sprint(n)))
			return
		}
		c.nodeCount = n
	}
}

// WithProgress registers a callback receiving an Event after each
// deployment step. Events arrive synchronously on the build goroutine (the
// Deploy caller's goroutine only when the build runs synchronously); the
// same events land in the Handle's journal regardless.
func WithProgress(fn func(Event)) Option {
	return func(c *config) { c.progress = fn }
}

// WithParallelism sets the compute-install wave width on the XCBC path: how
// many kickstarts overlap, bounded in practice by what the frontend can
// serve. A wave's simulated cost is its slowest member, not the sum.
// Default 1 (sequential); n < 0 is an error.
func WithParallelism(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail(fmt.Errorf("%w: negative parallelism %d", ErrBadOption, n))
			return
		}
		c.parallelism = n
	}
}

// WithRetries sets how many times a failed compute install is re-attempted
// (with simulated backoff) before the node is quarantined and the build
// moves on without it. Default 0; n < 0 is an error.
func WithRetries(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail(fmt.Errorf("%w: negative retries %d", ErrBadOption, n))
			return
		}
		c.retries = n
	}
}

// WithInstallHook registers a function run before every node install
// attempt (attempt numbering starts at 1); returning an error fails that
// attempt, which wave installs retry per WithRetries. It is the
// fault-injection seam for tests and chaos drills, and — because it runs on
// the build goroutine — a way to throttle or gate builds.
//
//detlint:reached support: pkg/xcbc/api's recovery, store and journal tests and cmd/repo-server's tests hold or fail builds through it
func WithInstallHook(fn func(node string, attempt int) error) Option {
	return func(c *config) { c.installHook = fn }
}

// WithVendorOS names the operating system the vendor path installs;
// default "Scientific Linux 6.5" (the Limulus ship state).
func WithVendorOS(name string) Option {
	return func(c *config) { c.vendorOS = name }
}

// WithBasePackages overrides the base package set the vendor path
// installs on every node.
func WithBasePackages(pkgs ...*rpm.Package) Option {
	return func(c *config) { c.basePackages = pkgs }
}

// WithPreProvisioned tells the vendor builder the hardware already runs an
// OS and packages (for example, hand-provisioned in a training exercise):
// skip vendor provisioning and only assemble the deployment around it.
func WithPreProvisioned() Option {
	return func(c *config) { c.preProvisioned = true }
}

// WithProfiles requests XNIT package profiles to install during adoption
// (see Profiles()).
func WithProfiles(names ...string) Option {
	return func(c *config) { c.profiles = append(c.profiles, names...) }
}

// WithPackages requests individual packages (with dependencies) to install
// cluster-wide during XNIT adoption.
func WithPackages(names ...string) Option {
	return func(c *config) { c.packages = append(c.packages, names...) }
}

func wrapName(sentinel error, name string) error {
	return fmt.Errorf("%w: %q", sentinel, name)
}

// newConfig applies options over defaults.
func newConfig(opts []Option) *config {
	c := &config{}
	for _, o := range opts {
		o(c)
	}
	return c
}

// resolveHardware picks the cluster to deploy on: explicit hardware wins,
// then the catalog name, then the default LittleFe. WithNodeCount is
// applied afterwards.
func (c *config) resolveHardware() (*cluster.Cluster, error) {
	hw := c.hardware
	if hw == nil {
		name := c.clusterName
		if name == "" {
			name = "littlefe"
		}
		var err error
		hw, err = NewCluster(name)
		if err != nil {
			return nil, err
		}
	}
	if c.nodeCount > 0 {
		if err := resizeComputes(hw, c.nodeCount); err != nil {
			return nil, err
		}
	}
	return hw, nil
}

// resolveEngine returns the configured engine or a fresh one.
func (c *config) resolveEngine() *sim.Engine {
	if c.engine != nil {
		return c.engine
	}
	return sim.NewEngine()
}

// resizeComputes grows or shrinks a cluster's compute set to n nodes via
// the shared internal/cluster helper, mapping failures onto the SDK
// sentinel.
func resizeComputes(hw *cluster.Cluster, n int) error {
	if err := cluster.ResizeComputes(hw, n); err != nil {
		return fmt.Errorf("%w: %v", ErrBadNodeCount, err)
	}
	return nil
}
