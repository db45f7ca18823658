package core

import (
	"fmt"
	"sort"

	"xcbc/internal/rocks"
	"xcbc/internal/rpm"
)

// Schedulers supported by the XCBC build (Table 1: "choose one").
var Schedulers = []string{"torque", "slurm", "sge"}

// OptionalRollNames lists the Rocks optional rolls of Table 1 part 1.
var OptionalRollNames = []string{
	"area51", "bio", "fingerprint", "htcondor", "ganglia",
	"hpc", "kvm", "perl", "python", "web-server", "zfs-linux",
}

// rollDescriptions matches Table 1's wording.
var rollDescriptions = map[string]string{
	"area51":      "Security-related packages for analyzing the integrity of files and the kernel",
	"bio":         "Bioinformatics utilities",
	"fingerprint": "Fingerprint application dependencies",
	"htcondor":    "HTCondor high-throughput computing workload management system",
	"ganglia":     "Cluster monitoring system",
	"hpc":         "Tools for running parallel applications",
	"kvm":         "Support for building Kernel-Based Virtual Machine (KVM) virtual machines on cluster nodes",
	"perl":        "Perl RPM, Comprehensive Perl Archive Network (CPAN) support utilities, and various CPAN modules",
	"python":      "Python 2.7 and Python 3.x",
	"web-server":  "Rocks web server roll",
	"zfs-linux":   "Zetabyte File System (ZFS) drivers for Linux",
}

// rollContents maps each optional roll to catalog package names, split by
// appliance.
var rollContents = map[string]struct{ compute, frontend []string }{
	"area51":      {compute: []string{"tripwire", "chkrootkit"}},
	"bio":         {compute: []string{"biopython", "clustalw"}},
	"fingerprint": {compute: []string{"fingerprint-deps"}},
	"htcondor":    {compute: []string{"htcondor"}},
	"ganglia":     {compute: []string{"ganglia-gmond", "rrdtool"}, frontend: []string{"ganglia-gmetad"}},
	"hpc":         {compute: []string{"stream", "iozone", "mpitests"}},
	"kvm":         {compute: []string{"qemu-kvm", "libvirt"}},
	"perl":        {compute: []string{"perl", "perl-CPAN", "perl-DBI"}},
	"python":      {compute: []string{"python27", "python3"}},
	"web-server":  {frontend: []string{"httpd", "mod_ssl"}},
	"zfs-linux":   {compute: []string{"spl", "zfs"}},
}

// baseRoll assembles the Rocks base roll: OS and Rocks core packages.
func baseRoll(byName map[string]*rpm.Package) *rocks.Roll {
	roll := rocks.NewRoll("base", RocksVersion)
	roll.AddPackages(rocks.ApplianceCompute,
		mustPkgs(byName, "kernel", "glibc", "bash", "openssh-server", "centos-release", "rocks",
			"environment-modules", "fdepend", "gmake", "gnu-make", "python", "scons")...)
	roll.AddPackages(rocks.ApplianceFrontend, mustPkgs(byName, "rocks-db")...)
	return roll
}

// xsedeRoll assembles the XSEDE roll (the XCBC itself, release 0.9) for
// one of Schedulers. Compute nodes receive the full scientific stack; the
// frontend additionally receives the scheduler server, Maui, and the XSEDE
// data/grid tools.
func xsedeRoll(byName map[string]*rpm.Package, scheduler string) *rocks.Roll {
	roll := rocks.NewRoll("xsede", XCBCVersion)
	switch scheduler {
	case "torque":
		roll.AddPackages(rocks.ApplianceCompute, mustPkgs(byName, "torque")...)
		roll.AddPackages(rocks.ApplianceFrontend, mustPkgs(byName, "torque-server", "maui")...)
	case "slurm":
		roll.AddPackages(rocks.ApplianceCompute, mustPkgs(byName, "slurm")...)
	case "sge":
		roll.AddPackages(rocks.ApplianceCompute, mustPkgs(byName, "sge")...)
	}
	var computeNames []string
	for _, e := range catalogEntries {
		switch e.category {
		case CategoryCompilers, CategorySciApps, CategoryMisc:
			computeNames = append(computeNames, e.name)
		}
	}
	roll.AddPackages(rocks.ApplianceCompute, mustPkgs(byName, computeNames...)...)
	roll.AddPackages(rocks.ApplianceFrontend,
		mustPkgs(byName, "globus-connect-server", "genesis2", "gffs")...)
	return roll
}

// optionalRoll assembles one of Table 1's optional rolls.
func optionalRoll(byName map[string]*rpm.Package, name string) *rocks.Roll {
	contents := rollContents[name]
	roll := rocks.NewRoll(name, RocksVersion)
	if len(contents.compute) > 0 {
		roll.AddPackages(rocks.ApplianceCompute, mustPkgs(byName, contents.compute...)...)
	}
	if len(contents.frontend) > 0 {
		roll.AddPackages(rocks.ApplianceFrontend, mustPkgs(byName, contents.frontend...)...)
	}
	return roll
}

// Table1Row is one row of Table 1 (general cluster setup).
type Table1Row struct {
	Category string
	Packages string
}

// Table1 regenerates Table 1: the basics, job management choices, and the
// optional rolls with their descriptions.
func Table1() []Table1Row {
	rows := []Table1Row{
		{Category: "Basics", Packages: fmt.Sprintf(
			"Rocks %s, Centos %s, modules, apache-ant, fdepend, gmake, gnu-make, scons",
			RocksVersion, CentOSVersion)},
		{Category: "Job Management", Packages: "Torque, SLURM, sge (choose one)"},
	}
	for _, name := range OptionalRollNames {
		rows = append(rows, Table1Row{Category: name, Packages: rollDescriptions[name]})
	}
	return rows
}

// Table2Row is one row of Table 2 (XSEDE run-alike components).
type Table2Row struct {
	Category string
	Packages []string
}

// Table2 regenerates Table 2 from the catalog: package names grouped by the
// paper's categories.
func Table2() []Table2Row {
	cats := []string{CategoryCompilers, CategorySciApps, CategoryMisc, CategoryJobMgmt, CategoryXSEDE}
	var rows []Table2Row
	for _, cat := range cats {
		var names []string
		for _, e := range catalogEntries {
			if e.category == cat {
				names = append(names, e.name)
			}
		}
		sort.Strings(names)
		rows = append(rows, Table2Row{Category: cat, Packages: names})
	}
	return rows
}

func mustPkgs(byName map[string]*rpm.Package, names ...string) []*rpm.Package {
	out := make([]*rpm.Package, 0, len(names))
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			panic(fmt.Sprintf("core: catalog is missing package %q", n))
		}
		out = append(out, p)
	}
	return out
}
