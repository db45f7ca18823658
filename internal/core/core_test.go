package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/depsolve"
	"xcbc/internal/rocks"
	"xcbc/internal/rpm"
	"xcbc/internal/sim"
)

func TestCatalogClosedUnderDependencies(t *testing.T) {
	// Every requirement of every catalog package must be satisfiable within
	// the catalog (excluding the "choose one" scheduler conflicts).
	pkgs := Catalog()
	byCap := func(req rpm.Capability) bool {
		for _, p := range pkgs {
			if p.ProvidesCap(req) {
				return true
			}
		}
		return false
	}
	for _, p := range pkgs {
		for _, req := range p.Requires {
			if !byCap(req) {
				t.Errorf("%s requires %s which nothing in the catalog provides", p.Name, req)
			}
		}
	}
}

func TestCatalogNoDuplicateNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Catalog() {
		if seen[p.Name] {
			t.Errorf("duplicate catalog package %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestCatalogCoversTable2(t *testing.T) {
	// Spot-check that the paper's Table 2 headline packages exist with the
	// right categories.
	byName := CatalogByName(Catalog())
	checks := map[string]string{
		"gcc":                   CategoryCompilers,
		"openmpi":               CategoryCompilers,
		"R":                     CategoryCompilers,
		"gromacs":               CategorySciApps,
		"lammps":                CategorySciApps,
		"trinity":               CategorySciApps,
		"valgrind":              CategorySciApps,
		"ant":                   CategoryMisc,
		"rhino":                 CategoryMisc,
		"maui":                  CategoryJobMgmt,
		"torque":                CategoryJobMgmt,
		"gffs":                  CategoryXSEDE,
		"globus-connect-server": CategoryXSEDE,
	}
	for name, cat := range checks {
		p, ok := byName[name]
		if !ok {
			t.Errorf("catalog missing %s", name)
			continue
		}
		if p.Category != cat {
			t.Errorf("%s category = %q, want %q", name, p.Category, cat)
		}
	}
	if len(byName) < 120 {
		t.Errorf("catalog has %d packages; the XNIT set should exceed 120", len(byName))
	}
}

func TestTable1Contents(t *testing.T) {
	rows := Table1()
	if len(rows) != 2+len(OptionalRollNames) {
		t.Fatalf("Table 1 rows = %d", len(rows))
	}
	if !strings.Contains(rows[0].Packages, "Rocks 6.1.1") || !strings.Contains(rows[0].Packages, "Centos 6.5") {
		t.Errorf("basics row = %q", rows[0].Packages)
	}
	if !strings.Contains(rows[1].Packages, "choose one") {
		t.Errorf("job management row = %q", rows[1].Packages)
	}
	found := false
	for _, r := range rows {
		if r.Category == "ganglia" && strings.Contains(r.Packages, "monitoring") {
			found = true
		}
	}
	if !found {
		t.Error("ganglia roll missing from Table 1")
	}
}

func TestTable2Contents(t *testing.T) {
	rows := Table2()
	if len(rows) != 5 {
		t.Fatalf("Table 2 rows = %d, want 5 categories", len(rows))
	}
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Category] = len(r.Packages)
	}
	// The paper's scientific-applications list is the longest.
	if counts[CategorySciApps] < 55 {
		t.Errorf("sci apps count = %d, want >= 55", counts[CategorySciApps])
	}
	if counts[CategoryCompilers] < 28 {
		t.Errorf("compilers count = %d, want >= 28", counts[CategoryCompilers])
	}
	if counts[CategoryXSEDE] != 3 {
		t.Errorf("XSEDE tools = %d, want 3", counts[CategoryXSEDE])
	}
}

func TestBuildDistributionPerScheduler(t *testing.T) {
	for _, sch := range Schedulers {
		d, err := BuildDistribution(sch, "ganglia")
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		if names := d.RollNames(); !slices.Contains(names, "base") || !slices.Contains(names, "xsede") || !slices.Contains(names, "ganglia") {
			t.Errorf("%s: rolls = %v", sch, d.RollNames())
		}
		computePkgs := d.PackagesFor(rocks.ApplianceCompute)
		names := map[string]bool{}
		for _, p := range computePkgs {
			names[p.Name] = true
		}
		if !names[sch] {
			t.Errorf("%s roll should put %s on computes", sch, sch)
		}
		for _, other := range Schedulers {
			if other != sch && names[other] {
				t.Errorf("%s build must not include %s", sch, other)
			}
		}
	}
	if _, err := BuildDistribution("cron"); err == nil {
		t.Fatal("unknown scheduler should fail")
	}
	if _, err := BuildDistribution("torque", "ghost-roll"); err == nil {
		t.Fatal("unknown roll should fail")
	}
	// Duplicate roll names are deduplicated, not an error.
	if _, err := BuildDistribution("torque", "ganglia", "ganglia"); err != nil {
		t.Fatalf("duplicate roll request should be tolerated: %v", err)
	}
}

func TestDistributionTransactionsResolve(t *testing.T) {
	// The provisioning transaction for each appliance must fully resolve —
	// this is the guarantee that makes "all at once, from scratch" work.
	for _, sch := range Schedulers {
		d, err := BuildDistribution(sch, OptionalRollNames...)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range []rocks.Appliance{rocks.ApplianceFrontend, rocks.ApplianceCompute} {
			db := rpm.NewDB()
			var tx rpm.Transaction
			for _, p := range d.PackagesFor(app) {
				tx.Install(p)
			}
			if err := tx.Run(db); err != nil {
				t.Errorf("%s/%s: install transaction failed: %v", sch, app, err)
			}
			if unmet := db.UnmetRequires(); len(unmet) != 0 {
				t.Errorf("%s/%s: unmet requires after install: %v", sch, app, unmet)
			}
		}
	}
}

func TestBuildXCBCEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.NewLittleFe()
	d, err := BuildXCBC(eng, c, Options{Scheduler: "torque"})
	if err != nil {
		t.Fatal(err)
	}
	if d.InstallDuration <= 0 || d.PackagesInstalled == 0 {
		t.Fatalf("install accounting: %v, %d", d.InstallDuration, d.PackagesInstalled)
	}
	// The frontend carries the full stack.
	for _, name := range []string{"gcc", "openmpi", "gromacs", "torque-server", "maui", "ganglia-gmetad", "environment-modules"} {
		if !c.Frontend.Packages().Has(name) {
			t.Errorf("frontend missing %s", name)
		}
	}
	// Computes carry the compute stack but not frontend-only packages.
	for _, n := range c.Computes {
		if !n.Packages().Has("torque") || !n.Packages().Has("gromacs") {
			t.Errorf("%s missing compute stack", n.Name)
		}
		if n.Packages().Has("torque-server") || n.Packages().Has("gffs") {
			t.Errorf("%s has frontend-only packages", n.Name)
		}
	}
	// Modules were generated from the stack.
	avail := d.Modules.Avail()
	if len(avail) < 60 {
		t.Errorf("module avail = %d entries, want a rich tree", len(avail))
	}
	// Compatibility: the XCBC build must be fully XSEDE-compatible.
	rep, err := d.CompatReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() != rep.Total() {
		t.Errorf("XCBC build not compatible:\n%s", rep.Summary())
	}
}

func TestBuildXCBCSlurmVariant(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.NewLittleFe()
	d, err := BuildXCBC(eng, c, Options{Scheduler: "slurm"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.CompatReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() != rep.Total() {
		t.Errorf("slurm build not compatible:\n%s", rep.Summary())
	}
	if d.Batch.PolicyName() != "slurm" {
		t.Errorf("batch policy = %s", d.Batch.PolicyName())
	}
}

func TestBuildXCBCRejectsDiskless(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.NewLimulusHPC200() // diskless computes
	if _, err := BuildXCBC(eng, c, Options{}); err == nil {
		t.Fatal("XCBC on diskless Limulus should fail (Rocks constraint)")
	}
}

func TestCommandsOnTorque(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBC(eng, cluster.NewLittleFe(), Options{Scheduler: "torque"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Exec("qsub -N md-run -l nodes=2:ppn=2,walltime=01:00:00 -u alice run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1.littlefe-head") {
		t.Errorf("qsub output = %q", out)
	}
	status, err := d.Exec("qstat")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "md-run") || !strings.Contains(status, "running") {
		t.Errorf("qstat:\n%s", status)
	}
	// SLURM commands are rejected on a Torque cluster.
	if _, err := d.Exec("sbatch -n 2 job.sh"); err == nil {
		t.Fatal("sbatch should fail on torque")
	}
	if _, err := d.Exec("qdel 1"); err != nil {
		t.Fatal(err)
	}
	j, _ := d.Batch.Job(1)
	if j.State.String() != "cancelled" {
		t.Errorf("job state after qdel = %v", j.State)
	}
	eng.Run()
}

func TestCommandsOnSlurm(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBC(eng, cluster.NewLittleFe(), Options{Scheduler: "slurm"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Exec("sbatch -J fft -n 4 -t 30 -u bob run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Submitted batch job 1") {
		t.Errorf("sbatch output = %q", out)
	}
	if _, err := d.Exec("qsub run.sh"); err == nil {
		t.Fatal("qsub should fail on slurm")
	}
	sq, err := d.Exec("squeue")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sq, "fft") {
		t.Errorf("squeue:\n%s", sq)
	}
	if _, err := d.Exec("scancel 1"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
}

func TestCommandsPortabilityAcrossSGE(t *testing.T) {
	// The paper's claim: a user's qsub knowledge transfers to any
	// PBS-family XCBC cluster. SGE accepts the same command.
	eng := sim.NewEngine()
	d, err := BuildXCBC(eng, cluster.NewLittleFe(), Options{Scheduler: "sge"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("qsub -N x -l nodes=1:ppn=2,walltime=00:10:00 job.sh"); err != nil {
		t.Fatalf("qsub on sge: %v", err)
	}
	eng.Run()
}

func TestExecErrors(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBC(eng, cluster.NewLittleFe(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"", "frobnicate", "qsub", "qsub -l cpus=4 x.sh", "qsub -l walltime=10:00 x.sh",
		"qdel", "qdel abc", "module", "module load gcc", "qsub -N",
	} {
		if _, err := d.Exec(bad); err == nil {
			t.Errorf("Exec(%q) should fail", bad)
		}
	}
	if out, err := d.Exec("module avail"); err != nil || !strings.Contains(out, "gromacs") {
		t.Errorf("module avail: %v, %q", err, out)
	}
}

func TestXNITAdoptionOnLimulus(t *testing.T) {
	// The paper's §5.2 workflow: vendor-provisioned diskless Limulus becomes
	// XSEDE-compatible through XNIT alone.
	eng := sim.NewEngine()
	c := cluster.NewLimulusHPC200()
	c.PowerOnAll()
	for _, n := range c.Nodes() {
		n.SetOS("Scientific Linux 6.5")
		// Vendor base: enough to boot. (Install directly; the vendor stack
		// is not ours to model in detail.)
		var tx rpm.Transaction
		tx.Install(rpm.NewPackage("kernel", "2.6.32-431.el6.sl", rpm.ArchX86_64).Build())
		tx.Install(rpm.NewPackage("environment-modules", "3.2.10-2.el6", rpm.ArchX86_64).Build())
		if err := tx.Run(n.Packages()); err != nil {
			t.Fatal(err)
		}
	}
	d, err := NewVendorDeployment(eng, c, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Before XNIT: nowhere near compatible.
	repBefore, _ := d.CompatReport()
	if repBefore.Passed() == repBefore.Total() {
		t.Fatal("vendor stack should not start compatible")
	}

	xnit, err := NewXNITRepository()
	if err != nil {
		t.Fatal(err)
	}
	ConfigureXNIT(d, xnit)
	if _, err := d.InstallEverywhere("gcc", "openmpi", "mpich2", "fftw", "hdf5", "netcdf",
		"python", "numpy", "R", "gromacs", "lammps", "ncbi-blast", "papi", "boost",
		"globus-connect-server"); err != nil {
		t.Fatal(err)
	}
	if err := d.ChangeScheduler("torque"); err != nil {
		t.Fatal(err)
	}
	repAfter, err := d.CompatReport()
	if err != nil {
		t.Fatal(err)
	}
	if repAfter.Passed() != repAfter.Total() {
		t.Errorf("after XNIT adoption:\n%s", repAfter.Summary())
	}
	if repAfter.Score() <= repBefore.Score() {
		t.Error("XNIT adoption should raise the compatibility score")
	}
	// The batch system now works with PBS commands.
	if _, err := d.Exec("qsub -N t -l nodes=1:ppn=4,walltime=00:10:00 x.sh"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
}

func TestChangeSchedulerSwapsAtomically(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBC(eng, cluster.NewLittleFe(), Options{Scheduler: "torque"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ChangeScheduler("slurm"); err != nil {
		t.Fatal(err)
	}
	if d.Cluster.Frontend.Packages().Has("torque") || !d.Cluster.Frontend.Packages().Has("slurm") {
		t.Fatal("frontend packages not swapped")
	}
	for _, n := range d.Cluster.Computes {
		if n.Packages().Has("torque") || !n.Packages().Has("slurm") {
			t.Fatalf("%s packages not swapped", n.Name)
		}
	}
	if _, err := d.Exec("sbatch -n 2 x.sh"); err != nil {
		t.Fatal(err)
	}
	// Swapping to the same scheduler is a no-op.
	if err := d.ChangeScheduler("slurm"); err != nil {
		t.Fatal(err)
	}
	if err := d.ChangeScheduler("cron"); err == nil {
		t.Fatal("unknown scheduler should fail")
	}
	eng.Run()
}

func TestChangeSchedulerRefusesWithRunningJobs(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBC(eng, cluster.NewLittleFe(), Options{Scheduler: "torque"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("qsub -l nodes=1:ppn=2,walltime=01:00:00 x.sh"); err != nil {
		t.Fatal(err)
	}
	if err := d.ChangeScheduler("slurm"); err == nil {
		t.Fatal("scheduler change with running jobs must be refused")
	}
	eng.Run()
}

func TestInstallProfiles(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.NewLimulusHPC200()
	c.PowerOnAll()
	d, err := NewVendorDeployment(eng, c, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	xnit, _ := NewXNITRepository()
	ConfigureXNIT(d, xnit)
	n, err := d.InstallProfile("bio")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("bio profile should install packages")
	}
	if !c.Frontend.Packages().Has("trinity") || !c.Computes[0].Packages().Has("bwa") {
		t.Fatal("bio stack missing")
	}
	if _, err := d.InstallProfile("ghost"); err == nil {
		t.Fatal("unknown profile should fail")
	}
	if len(Profiles()) < 5 {
		t.Error("profile list too short")
	}
	// Without repo configuration, installs fail cleanly.
	d2, _ := NewVendorDeployment(sim.NewEngine(), cluster.NewLittleFe(), "", Options{})
	if _, err := d2.InstallEverywhere("gcc"); err == nil {
		t.Fatal("install without repos should fail")
	}
}

func TestUpdateWorkflowAcrossCluster(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBC(eng, cluster.NewLittleFe(), Options{Scheduler: "torque"})
	if err != nil {
		t.Fatal(err)
	}
	xnit, _ := NewXNITRepository()
	ConfigureXNIT(d, xnit)
	// Publish a security update to the repo.
	if err := xnit.Publish(rpm.NewPackage("gcc", "4.4.7-17.el6", rpm.ArchX86_64).
		Category("security update").Requires(rpm.Cap("glibc"), rpm.Cap("gmp"), rpm.Cap("mpfr")).Build()); err != nil {
		t.Fatal(err)
	}
	notes := d.RunUpdateCheckEverywhere(depsolve.PolicyNotify, fixedTime())
	if len(notes) != 6 {
		t.Fatalf("notifications = %d", len(notes))
	}
	for node, n := range notes {
		if len(n.Pending) != 1 {
			t.Errorf("%s: pending = %v", node, n.Pending)
		}
	}
	// Auto-apply actually updates everywhere.
	d.RunUpdateCheckEverywhere(depsolve.PolicyAutoApply, fixedTime())
	for _, n := range d.Cluster.Nodes() {
		if got := n.Packages().Newest("gcc").EVR.String(); got != "4.4.7-17.el6" {
			t.Errorf("%s gcc = %s", n.Name, got)
		}
	}
}

func fixedTime() time.Time { return time.Date(2015, 3, 1, 6, 0, 0, 0, time.UTC) }
