package core

import (
	"fmt"
	"sort"
	"time"

	"xcbc/internal/depsolve"
	"xcbc/internal/power"
	"xcbc/internal/provision"
	"xcbc/internal/repo"
	"xcbc/internal/rpm"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
)

// XNITRepoID is the repository ID the README tells administrators to use.
const XNITRepoID = "xsede"

// XNITPriority is the priority the XSEDE repo README recommends with
// yum-plugin-priorities: below the vendor/base repos (which typically sit at
// lower numbers) so XNIT never hijacks base packages.
const XNITPriority = 50

// NewXNITRepository creates the XSEDE Yum repository pre-populated with the
// full XNIT catalog (everything in the XCBC build, and more, per the paper).
func NewXNITRepository() (*repo.Repository, error) {
	r := repo.New(XNITRepoID, "XSEDE National Integration Toolkit",
		"http://cb-repo.iu.xsede.org/xsederepo")
	if err := r.Publish(Catalog()...); err != nil {
		return nil, err
	}
	return r, nil
}

// ConfigureXNIT performs the paper's §3 setup on an existing deployment:
// install yum-plugin-priorities, drop the xsede.repo configuration with the
// recommended priority, and create the XSEDE directory layout. It does not
// install any scientific software yet — that is the administrator's choice.
func ConfigureXNIT(d *Deployment, xnitRepo *repo.Repository) {
	d.Repos.Add(repo.Config{Repo: xnitRepo, Priority: XNITPriority, Enabled: true})
	for _, n := range d.Cluster.Nodes() {
		// The XSEDE path conventions arrive with the repo configuration
		// package (they are %post scriptlets in the real repo RPM).
		n.SetAttr("dir:/opt/apps", "present")
		n.SetAttr("dir:/opt/modulefiles", "present")
		n.SetAttr("dir:/export", "present")
		n.SetAttr("yum-plugin-priorities", "installed")
	}
}

// InstallEverywhere resolves and installs the named packages (with
// dependencies) on every node of the deployment, charging simulated install
// time per package per node. This is "yum install" run cluster-wide (what
// pdsh or the vendor tooling would fan out).
func (d *Deployment) InstallEverywhere(names ...string) (int, error) {
	if len(d.Repos.Enabled()) == 0 {
		return 0, fmt.Errorf("%w (configure one first, as XNIT adoption does)", ErrNoRepos)
	}
	totalInstalled := 0
	for _, n := range d.Cluster.Nodes() {
		res := depsolve.New(d.Repos, n.Packages())
		tx, err := res.Install(names...)
		if err != nil {
			return totalInstalled, fmt.Errorf("core: resolving %v on %s: %w", names, n.Name, err)
		}
		if tx.Len() == 0 {
			continue
		}
		if err := tx.Run(n.MutablePackages()); err != nil {
			return totalInstalled, fmt.Errorf("core: installing on %s: %w", n.Name, err)
		}
		totalInstalled += tx.InstallCount()
		d.Engine.RunUntil(d.Engine.Now() + sim.Time(time.Duration(tx.InstallCount())*provision.PerPackage))
	}
	d.RegenerateModules()
	return totalInstalled, nil
}

// InstallProfile names curated package sets administrators commonly pull
// from XNIT in one shot.
var profiles = map[string][]string{
	"compilers":  {"gcc", "gcc-gfortran", "openmpi", "mpich2", "fftw", "hdf5", "papi"},
	"python":     {"python", "numpy", "mpi4py-openmpi"},
	"bio":        {"ncbi-blast", "bwa", "bowtie", "samtools", "BEDTools", "hmmer", "trinity", "picard-tools"},
	"chemistry":  {"gromacs", "lammps", "espresso-ab", "autodocksuite"},
	"statistics": {"R", "R-devel", "octave"},
	"grid":       {"globus-connect-server", "genesis2", "gffs"},
	"monitoring": {"ganglia-gmond", "ganglia-gmetad"},
}

// Profiles lists the available profile names, sorted — map order must not
// leak into error messages or API responses.
func Profiles() []string {
	out := make([]string, 0, len(profiles))
	for name := range profiles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CheckProfiles fails with ErrUnknownProfile on the first name absent from
// Profiles.
func CheckProfiles(names ...string) error {
	for _, name := range names {
		if _, ok := profiles[name]; !ok {
			return fmt.Errorf("%w %q (have %v)", ErrUnknownProfile, name, Profiles())
		}
	}
	return nil
}

// InstallProfile installs a named profile everywhere.
func (d *Deployment) InstallProfile(profile string) (int, error) {
	if err := CheckProfiles(profile); err != nil {
		return 0, err
	}
	return d.InstallEverywhere(profiles[profile]...)
}

// ChangeScheduler swaps the deployment's batch system in place — the
// Limulus workflow the paper highlights ("with XNIT add software, change the
// schedulers"). Old scheduler packages are erased and the new ones installed
// in one atomic transaction per node; running jobs are drained first.
func (d *Deployment) ChangeScheduler(to string) error {
	if err := CheckRecipe(to, nil); err != nil {
		return err
	}
	policy, _ := sched.PolicyByName(to)
	if to == d.Scheduler {
		return nil
	}
	if d.Batch != nil {
		if _, running, _ := d.Batch.JobCounts(); running > 0 {
			return fmt.Errorf("%w: %d job(s); drain the queue before changing schedulers", ErrJobsRunning, running)
		}
	}
	byName := CatalogByName(Catalog())
	oldPkgs := schedulerPackages(d.Scheduler)
	newPkgs := schedulerPackages(to)
	for _, n := range d.Cluster.Nodes() {
		var tx rpm.Transaction
		for _, name := range oldPkgs {
			if p := n.Packages().Newest(name); p != nil {
				tx.Erase(p)
			}
		}
		isFrontend := n == d.Cluster.Frontend
		for i, name := range newPkgs {
			// Server-side packages only go on the frontend.
			if !isFrontend && i > 0 {
				continue
			}
			tx.Install(byName[name])
		}
		if tx.Len() == 0 {
			continue
		}
		if err := tx.Run(n.MutablePackages()); err != nil {
			return fmt.Errorf("core: scheduler swap on %s: %w", n.Name, err)
		}
		d.Engine.RunUntil(d.Engine.Now() + sim.Time(time.Duration(tx.InstallCount())*provision.PerPackage))
	}
	d.Scheduler = to
	if d.Batch == nil {
		d.Batch = sched.NewManager(d.Engine, d.Cluster, policy)
		// The power manager was started over no batch system, so it has no
		// drain or wake hooks: start it again over the new one.
		d.Power = power.NewManager(d.Engine, d.Cluster, d.Batch, d.Power.Policy)
	} else {
		d.Batch.SetPolicy(policy)
	}
	return nil
}

// schedulerPackages returns the catalog package names for a scheduler, the
// node package first and server-side packages after.
func schedulerPackages(name string) []string {
	switch name {
	case "torque":
		return []string{"torque", "torque-server", "maui"}
	case "slurm":
		return []string{"slurm"}
	case "sge":
		return []string{"sge"}
	}
	return nil
}

// RunUpdateCheckEverywhere performs the paper's periodic update check on
// every node under the given policy and returns per-node notifications.
func (d *Deployment) RunUpdateCheckEverywhere(policy depsolve.UpdatePolicy, now time.Time) map[string]*depsolve.Notification {
	out := make(map[string]*depsolve.Notification, d.Cluster.NodeCount())
	for _, n := range d.Cluster.Nodes() {
		db := n.Packages()
		if policy != depsolve.PolicyNotify { // the check may apply updates
			db = n.MutablePackages()
		}
		out[n.Name] = depsolve.New(d.Repos, db).RunUpdateCheck(policy, now)
	}
	return out
}
