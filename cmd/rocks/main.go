// Command rocks is the administrator's console for a simulated XCBC
// cluster: it builds the cluster, then executes a semicolon-separated
// script of Rocks-flavoured admin commands — the hands-on loop of the
// paper's sysadmin curriculum.
//
// Usage:
//
//	rocks -script "list host; add user alice research; sync 411; verify"
//	rocks -script "drain compute-0-2; reinstall compute-0-2; undrain compute-0-2; verify"
//
// Commands:
//
//	list host                 print the frontend database
//	list roll                 print the distribution's rolls
//	add user <name> <group>   create an account in the 411 service
//	sync 411                  push login info to all computes
//	drain <node>              take a node out of scheduling
//	undrain <node>            return a node to scheduling
//	reinstall <node>          wipe and re-kickstart a node
//	fail <node>               simulate a node failure (jobs requeue)
//	repair <node>             bring a failed node back
//	verify                    run the cluster health checker
//	report                    print monitoring + accounting reports
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"xcbc/internal/rocks"
	"xcbc/internal/verify"
	"xcbc/pkg/xcbc"
)

func main() {
	clusterName := flag.String("cluster", "littlefe", "littlefe, marshall, or howard")
	scheduler := flag.String("scheduler", "torque", "torque, slurm, or sge")
	script := flag.String("script", "list host", "semicolon-separated admin commands")
	flag.Parse()

	d, err := xcbc.NewXCBC(
		xcbc.WithCluster(*clusterName),
		xcbc.WithScheduler(*scheduler),
	).Deploy(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocks:", err)
		os.Exit(1)
	}
	users := rocks.New411()
	fmt.Printf("# %s built (%s); executing script\n", d.Hardware().Name, *scheduler)

	for _, raw := range strings.Split(*script, ";") {
		cmd := strings.TrimSpace(raw)
		if cmd == "" {
			continue
		}
		fmt.Printf("\nrocks> %s\n", cmd)
		if err := execute(d, users, cmd); err != nil {
			fmt.Fprintln(os.Stderr, "rocks:", err)
			os.Exit(1)
		}
	}
	d.Engine().Run()
}

func execute(d *xcbc.Deployment, users *rocks.Service411, cmd string) error {
	f := strings.Fields(cmd)
	switch {
	case len(f) == 2 && f[0] == "list" && f[1] == "host":
		fmt.Print(d.Installer().DB.ListHostReport())
	case len(f) == 2 && f[0] == "list" && f[1] == "roll":
		for _, name := range d.Installer().DB.Distribution().RollNames() {
			fmt.Println(name)
		}
	case len(f) == 4 && f[0] == "add" && f[1] == "user":
		u, err := users.AddUser(f[2], f[3])
		if err != nil {
			return err
		}
		fmt.Printf("created %s (uid %d, home %s)\n", u.Name, u.UID, u.Home)
	case len(f) == 2 && f[0] == "sync" && f[1] == "411":
		var names []string
		for _, n := range d.Hardware().Computes {
			names = append(names, n.Name)
		}
		for _, n := range names {
			snap := users.Pull(n)
			if !snap.Verify() {
				return fmt.Errorf("411 snapshot failed verification on %s", n)
			}
		}
		fmt.Printf("411 generation %d pushed to %d nodes (stale now: %d)\n",
			users.Generation(), len(names), len(users.StaleNodes(names)))
	case len(f) == 2 && f[0] == "drain":
		if err := d.Batch().Drain(f[1]); err != nil {
			return err
		}
		fmt.Printf("%s drained\n", f[1])
	case len(f) == 2 && f[0] == "undrain":
		if err := d.Batch().Undrain(f[1]); err != nil {
			return err
		}
		fmt.Printf("%s back in service\n", f[1])
	case len(f) == 2 && f[0] == "reinstall":
		r, err := d.Installer().Reinstall(d.Engine(), f[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s reinstalled: %d packages in %v\n", r.Node, r.Packages, r.Duration)
	case len(f) == 2 && f[0] == "fail":
		if err := d.Batch().NodeFail(f[1]); err != nil {
			return err
		}
		fmt.Printf("%s failed; %d job(s) requeued\n", f[1], d.Batch().RequeuedCount())
	case len(f) == 2 && f[0] == "repair":
		if err := d.Batch().NodeRepair(f[1]); err != nil {
			return err
		}
		fmt.Printf("%s repaired\n", f[1])
	case len(f) == 1 && f[0] == "verify":
		svc := []string{"gmond"}
		feSvc := []string{"gmetad"}
		switch d.Scheduler() {
		case "torque":
			svc = append(svc, "pbs_mom")
			feSvc = append(feSvc, "pbs_server", "maui")
		case "slurm":
			svc = append(svc, "slurmd")
			feSvc = append(feSvc, "slurmctld")
		case "sge":
			svc = append(svc, "sge_execd")
			feSvc = append(feSvc, "sge_qmaster")
		}
		chk := &verify.Checker{Cluster: d.Hardware(), DB: d.Installer().DB,
			ComputeServices: svc, FrontendServices: feSvc}
		fmt.Print(chk.Run().Summary())
	case len(f) == 1 && f[0] == "report":
		d.Monitor().Poll(d.Engine().Now())
		fmt.Print(d.Monitor().Report())
		fmt.Print(d.Batch().AccountingReport())
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}
