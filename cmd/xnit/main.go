// Command xnit demonstrates the XSEDE National Integration Toolkit workflow
// on an existing cluster: configure the XSEDE Yum repository, install
// package profiles, optionally change the scheduler, run an update check,
// and report the compatibility score before and after.
//
// Usage:
//
//	xnit -cluster limulus -profiles compilers,bio -scheduler torque
//	xnit -list-profiles
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xcbc/pkg/xcbc"
)

func main() {
	clusterName := flag.String("cluster", "limulus", "existing cluster to convert: limulus, littlefe, montana, pbarc")
	profilesFlag := flag.String("profiles", "compilers,python,statistics", "comma-separated XNIT profiles to install")
	scheduler := flag.String("scheduler", "torque", "scheduler to install (empty = keep none)")
	listProfiles := flag.Bool("list-profiles", false, "list available profiles and exit")
	flag.Parse()

	if *listProfiles {
		for _, p := range xcbc.Profiles() {
			fmt.Println(p)
		}
		return
	}

	ctx := context.Background()

	// The cluster arrives running its vendor stack.
	d, err := xcbc.NewVendor(xcbc.WithCluster(*clusterName)).Deploy(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xnit:", err)
		os.Exit(1)
	}
	before, _ := d.Compat()
	fmt.Printf("before XNIT: %d/%d compatibility checks pass (%.0f%%)\n",
		before.Passed, before.Total, 100*before.Score)

	var profiles []string
	for _, p := range strings.Split(*profilesFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			profiles = append(profiles, p)
		}
	}
	opts := []xcbc.Option{
		xcbc.WithProfiles(profiles...),
		// Fill in anything the compatibility reference still wants.
		xcbc.WithPackages("gcc", "openmpi", "mpich2", "fftw", "hdf5", "netcdf",
			"python", "numpy", "R", "gromacs", "lammps", "ncbi-blast", "papi", "boost",
			"globus-connect-server"),
		xcbc.WithProgress(func(ev xcbc.Event) {
			switch ev.Stage {
			case "repo":
				fmt.Printf("configured %s repository (priority %d, %d packages)\n",
					xcbc.XNITRepoID, xcbc.XNITPriority, ev.Packages)
			case "profile", "scheduler":
				fmt.Printf("%s\n", ev.Message)
			}
		}),
	}
	if *scheduler != "" {
		opts = append(opts, xcbc.WithScheduler(*scheduler))
	}
	if _, err := xcbc.NewXNIT(d, opts...).Deploy(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "xnit:", err)
		os.Exit(1)
	}

	after, _ := d.Compat()
	fmt.Printf("after XNIT:  %d/%d compatibility checks pass (%.0f%%)\n",
		after.Passed, after.Total, 100*after.Score)
	fmt.Printf("simulated time consumed: %v\n", d.Engine().Now().Duration())

	// The update-check workflow the paper recommends (notify, not auto).
	chk := d.Open().CheckUpdates(xcbc.UpdateNotify, time.Now())
	fmt.Printf("update check (policy notify) across %d nodes: %d updates pending review\n",
		len(chk.ByNode), chk.PendingTotal())
}
