// XNIT adoption: take a running, vendor-managed, diskless Limulus HPC200 —
// which Rocks cannot reinstall — and convert it into an XSEDE-compatible
// cluster in place: repository configuration with priorities, incremental
// package installation, a scheduler swap, and the prudent notify-only update
// policy the paper recommends.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"xcbc/internal/repo"
	"xcbc/internal/rpm"
	"xcbc/pkg/xcbc"
)

func main() {
	ctx := context.Background()

	// The machine arrives with Scientific Linux and vendor tooling. Note the
	// diskless compute blades: the XCBC/Rocks path is impossible here.
	d, err := xcbc.NewVendor(
		xcbc.WithCluster("limulus"),
		xcbc.WithVendorOS("Scientific Linux 6.5"),
		xcbc.WithBasePackages(
			rpm.NewPackage("kernel", "2.6.32-431.el6.sl", rpm.ArchX86_64).Build(),
			rpm.NewPackage("openssh-server", "5.3p1-94.el6", rpm.ArchX86_64).Build(),
			rpm.NewPackage("environment-modules", "3.2.10-2.el6", rpm.ArchX86_64).Build(),
			rpm.NewPackage("python", "2.6.6-52.el6.sl", rpm.ArchX86_64).Build(), // vendor build
		),
	).Deploy(ctx)
	if err != nil {
		log.Fatal(err)
	}
	before, _ := d.Compat()
	fmt.Printf("out of the box: %d/%d compatibility checks (%.0f%%)\n",
		before.Passed, before.Total, 100*before.Score)

	// Configure repositories: the vendor repo at priority 10, XNIT at 50.
	// yum-plugin-priorities guarantees XNIT never replaces vendor packages —
	// "without changing the pre-existing cluster setup".
	vendor := repo.New("sl-base", "Scientific Linux base", "")
	if err := vendor.Publish(rpm.NewPackage("python", "2.6.6-52.el6.sl", rpm.ArchX86_64).Build()); err != nil {
		log.Fatal(err)
	}
	d.Repos().Add(repo.Config{Repo: vendor, Priority: 10, Enabled: true})

	// Adopt: configure the XSEDE repo, install the scientific stack
	// incrementally, and — "with XNIT add software, change the
	// schedulers" — give it Torque+Maui.
	if _, err := xcbc.NewXNIT(d,
		xcbc.WithProfiles("compilers", "python", "statistics", "chemistry", "bio", "grid"),
		xcbc.WithScheduler("torque"),
		xcbc.WithPackages("gcc", "openmpi", "mpich2", "fftw", "hdf5", "netcdf",
			"numpy", "R", "gromacs", "lammps", "ncbi-blast", "papi", "boost",
			"globus-connect-server"),
		xcbc.WithProgress(func(ev xcbc.Event) {
			if ev.Stage == "profile" {
				fmt.Printf("  %s (%d installs)\n", ev.Message, ev.Packages)
			}
		}),
	).Deploy(ctx); err != nil {
		log.Fatal(err)
	}

	// The vendor python must have survived priority shadowing.
	py := d.Hardware().Frontend.Packages().Newest("python")
	fmt.Printf("python after adoption: %s (vendor build preserved: %v)\n",
		py.EVR, py.EVR.Release == "52.el6.sl")

	after, _ := d.Compat()
	fmt.Printf("after XNIT: %d/%d compatibility checks (%.0f%%)\n",
		after.Passed, after.Total, 100*after.Score)

	// Users now get the XSEDE experience on the deskside box.
	out, err := d.Exec("qsub -N gromacs-md -l nodes=3:ppn=4,walltime=01:00:00 -u kai md.sh")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("$ qsub ... -> %s\n", out)
	d.Engine().Run()

	// A month later, XNIT publishes updates. The prudent policy: notify.
	xnit := d.Repo(xcbc.XNITRepoID)
	if err := xnit.Publish(
		rpm.NewPackage("openmpi", "1.6.5-1.el6", rpm.ArchX86_64).
			Provides(rpm.Cap("mpi")).
			Requires(rpm.Cap("gcc"), rpm.Cap("librdmacm"), rpm.Cap("libibverbs"), rpm.Cap("numactl")).
			Build(),
		rpm.NewPackage("gromacs", "4.6.7-1.el6", rpm.ArchX86_64).
			Requires(rpm.Cap("gromacs-common"), rpm.Cap("gromacs-libs"), rpm.Cap("openmpi")).
			Build(),
	); err != nil {
		log.Fatal(err)
	}
	chk := d.Open().CheckUpdates(xcbc.UpdateNotify, time.Date(2015, 4, 1, 6, 0, 0, 0, time.UTC))
	fmt.Println(chk.ByNode[d.Hardware().Frontend.Name].Summary)
}
