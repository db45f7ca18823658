package xcbc

import (
	"fmt"
	"sync"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/core"
	"xcbc/internal/depsolve"
	"xcbc/internal/modules"
	"xcbc/internal/monitor"
	"xcbc/internal/power"
	"xcbc/internal/provision"
	"xcbc/internal/repo"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
)

// Deployment is a running cluster produced by a Builder: the hardware plus
// every subsystem. The methods below cover the paper's day-2 workflows;
// the subsystem accessors hand out the underlying managers for anything
// beyond them. For concurrent (HTTP-reachable) day-2 use, Open the
// Cluster resource instead of calling these directly.
type Deployment struct {
	core *core.Deployment

	opsOnce sync.Once
	ops     *core.Operations
}

// Open returns the Cluster resource for this deployment: the
// concurrency-safe day-2 surface (jobs, metrics, validation, updates).
// Every Open on the same Deployment shares one serialization point, so
// clusters opened twice stay mutually safe.
func (d *Deployment) Open() *Cluster {
	d.opsOnce.Do(func() { d.ops = core.NewOperations(d.core) })
	return &Cluster{d: d, ops: d.ops}
}

// Exec runs one scheduler-native command line (qsub/qstat/qdel,
// sbatch/squeue/scancel, module avail) against the deployment — the
// paper's XSEDE command-compatibility claim.
func (d *Deployment) Exec(line string) (string, error) { return d.core.Exec(line) }

// Scheduler returns the active job manager name, "" if none.
func (d *Deployment) Scheduler() string { return d.core.Scheduler }

// PackagesInstalled counts packages placed across all nodes at build time.
func (d *Deployment) PackagesInstalled() int { return d.core.PackagesInstalled }

// InstallDuration is the simulated time the initial build consumed.
func (d *Deployment) InstallDuration() time.Duration { return d.core.InstallDuration }

// Quarantined lists compute nodes that exhausted their install retries and
// were set aside during the build; they remain in the hardware description
// but carry no OS. Empty on a clean build.
func (d *Deployment) Quarantined() []string {
	return append([]string(nil), d.core.Quarantined...)
}

// InstallLog returns the provisioning log, empty on the vendor path.
func (d *Deployment) InstallLog() []string {
	if d.core.Installer == nil {
		return nil
	}
	return d.core.Installer.Log()
}

// Hardware returns the deployed cluster's hardware description.
func (d *Deployment) Hardware() *cluster.Cluster { return d.core.Cluster }

// Engine returns the simulation engine driving the deployment.
func (d *Deployment) Engine() *sim.Engine { return d.core.Engine }

// Batch returns the batch system manager, nil if no scheduler is
// installed.
func (d *Deployment) Batch() *sched.Manager { return d.core.Batch }

// Modules returns the environment-modules system.
func (d *Deployment) Modules() *modules.System { return d.core.Modules }

// Monitor returns the Ganglia-style monitoring aggregator.
func (d *Deployment) Monitor() *monitor.Aggregator { return d.core.Monitor }

// PowerManager returns the node power manager.
func (d *Deployment) PowerManager() *power.Manager { return d.core.Power }

// Repos returns the deployment's client-side repository configuration
// (its yum.repos.d); safe for concurrent use.
func (d *Deployment) Repos() *repo.Set { return d.core.Repos }

// Repo returns a configured repository by ID (for example XNITRepoID
// after XNIT adoption), or nil.
func (d *Deployment) Repo(id string) *repo.Repository { return d.core.Repos.Lookup(id) }

// Installer returns the Rocks provisioning driver, nil on the vendor
// path.
func (d *Deployment) Installer() *provision.Installer { return d.core.Installer }

// AttachInstaller hands a deployment the installer that provisioned its
// hardware, for setups assembled step by step (training walkthroughs).
func (d *Deployment) AttachInstaller(ins *provision.Installer) { d.core.Installer = ins }

// InstallProfile installs a curated XNIT package profile cluster-wide and
// returns the number of package installs performed.
func (d *Deployment) InstallProfile(name string) (int, error) {
	if err := checkProfiles([]string{name}); err != nil {
		return 0, err
	}
	n, err := d.core.InstallProfile(name)
	return n, d.translateInstall(err)
}

// InstallPackages resolves and installs the named packages (with
// dependencies) on every node, returning the number of installs.
func (d *Deployment) InstallPackages(names ...string) (int, error) {
	n, err := d.core.InstallEverywhere(names...)
	return n, d.translateInstall(err)
}

func (d *Deployment) translateInstall(err error) error {
	if err == nil {
		return nil
	}
	if len(d.core.Repos.Enabled()) == 0 {
		return fmt.Errorf("%w (adopt with NewXNIT or add one to Repos()): %w", ErrNoRepos, err)
	}
	return translate(err)
}

// ChangeScheduler swaps the batch system in place — the Limulus workflow
// the paper highlights. The queue must be drained first.
func (d *Deployment) ChangeScheduler(to string) error {
	if err := checkScheduler(to); err != nil {
		return err
	}
	if d.core.Batch != nil {
		if running := len(d.core.Batch.Running()); running > 0 {
			return fmt.Errorf("%w: %d job(s); drain the queue before changing schedulers",
				ErrJobsRunning, running)
		}
	}
	return translate(d.core.ChangeScheduler(to))
}

// Compat summarizes an XSEDE compatibility check of the frontend against
// the Stampede reference.
type Compat struct {
	Passed int
	Total  int
	Score  float64 // Passed/Total in [0,1]
	Text   string  // human-readable report
}

// Compat runs the compatibility check.
func (d *Deployment) Compat() (Compat, error) {
	rep, err := d.core.CompatReport()
	if err != nil {
		return Compat{}, translate(err)
	}
	return Compat{Passed: rep.Passed(), Total: rep.Total(), Score: rep.Score(),
		Text: rep.Summary()}, nil
}

// CompatCounts returns Compat's Passed and Total without rendering the
// report; the two always agree.
func (d *Deployment) CompatCounts() (passed, total int, err error) {
	passed, total, err = d.core.CompatCounts()
	return passed, total, translate(err)
}

// UpdatePolicy selects how an update check treats available updates.
type UpdatePolicy int

// Update policies, mirroring the paper's §3 guidance.
const (
	// UpdateNotify reports updates for administrator review (the paper's
	// "more prudent action").
	UpdateNotify UpdatePolicy = iota
	// UpdateAutoApply applies all available updates immediately.
	UpdateAutoApply
	// UpdateSecurityOnly auto-applies security updates and reports the
	// rest.
	UpdateSecurityOnly
)

func (p UpdatePolicy) String() string {
	switch p {
	case UpdateNotify:
		return "notify"
	case UpdateAutoApply:
		return "auto-apply"
	case UpdateSecurityOnly:
		return "security-only"
	}
	return "?"
}

func (p UpdatePolicy) internal() depsolve.UpdatePolicy {
	switch p {
	case UpdateAutoApply:
		return depsolve.PolicyAutoApply
	case UpdateSecurityOnly:
		return depsolve.PolicySecurityOnly
	}
	return depsolve.PolicyNotify
}

// NodeUpdates is the outcome of an update check on one node.
type NodeUpdates struct {
	Pending int    // updates held for review
	Applied int    // updates applied under the policy
	Summary string // the report body the paper suggests sites mail out
}

// UpdateCheck is a cluster-wide update check result, keyed by node name.
type UpdateCheck struct {
	Policy UpdatePolicy
	ByNode map[string]NodeUpdates
}

// PendingTotal sums pending updates across all nodes.
func (u UpdateCheck) PendingTotal() int {
	n := 0
	for _, nu := range u.ByNode {
		n += nu.Pending
	}
	return n
}

// AppliedTotal sums applied updates across all nodes.
func (u UpdateCheck) AppliedTotal() int {
	n := 0
	for _, nu := range u.ByNode {
		n += nu.Applied
	}
	return n
}

// UpdateCheck performs the paper's periodic update check on every node
// under the given policy.
func (d *Deployment) UpdateCheck(policy UpdatePolicy, now time.Time) UpdateCheck {
	notes := d.core.RunUpdateCheckEverywhere(policy.internal(), now)
	out := UpdateCheck{Policy: policy, ByNode: make(map[string]NodeUpdates, len(notes))}
	for node, n := range notes { //detlint:ordered map-to-map rebuild under distinct keys; Summary is pure
		out.ByNode[node] = NodeUpdates{Pending: len(n.Pending), Applied: len(n.Applied),
			Summary: n.Summary()}
	}
	return out
}
