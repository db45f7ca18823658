// LittleFe training: the paper's §6 curriculum module, "Building and
// administering a Beowulf-style cluster with LittleFe and the
// XSEDE-compatible Basic Cluster build". Students walk through the
// bare-metal install step by step, watch the cluster come up, break a node,
// and repair it with a Rocks reinstall — without touching any production
// resource.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/provision"
	"xcbc/internal/rocks"
	"xcbc/internal/sim"
	"xcbc/pkg/xcbc"
)

func lesson(n int, title string) {
	fmt.Printf("\n=== Lesson %d: %s ===\n", n, title)
}

func main() {
	ctx := context.Background()

	lesson(1, "Know your hardware")
	lf, err := xcbc.NewCluster("littlefe")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cluster.RenderLittleFeFront(lf))
	fmt.Println("Why the mSATA drives? Rocks does not support diskless installation;")
	fmt.Println("the original Atom-based LittleFe cannot take the XCBC build at all:")
	original, err := xcbc.NewCluster("littlefe-original")
	if err != nil {
		log.Fatal(err)
	}
	eng0 := sim.NewEngine()
	dist0, _ := xcbc.BuildDistribution("torque")
	g0 := rocks.DefaultGraph()
	if err := rocks.AttachXSEDEFragments(g0, "torque"); err != nil {
		log.Fatal(err)
	}
	plan0, err := provision.NewPlan(dist0, g0)
	if err != nil {
		log.Fatal(err)
	}
	ins0 := provision.NewInstaller(original, rocks.NewFrontendDB(dist0, original), plan0, "CentOS 6.5")
	if _, err := ins0.InstallFrontend(eng0); err != nil {
		log.Fatal(err)
	}
	if err := ins0.DiscoverComputes(); err != nil {
		log.Fatal(err)
	}
	if _, err := ins0.InstallCompute(eng0, original.Computes[0].Name); err != nil {
		fmt.Printf("  -> %v\n", err)
	}

	lesson(2, "Install the frontend from the XCBC media")
	eng := sim.NewEngine()
	dist, err := xcbc.BuildDistribution("torque", "ganglia", "hpc")
	if err != nil {
		log.Fatal(err)
	}
	graph := rocks.DefaultGraph()
	if err := rocks.AttachXSEDEFragments(graph, "torque"); err != nil {
		log.Fatal(err)
	}
	plan, err := provision.NewPlan(dist, graph)
	if err != nil {
		log.Fatal(err)
	}
	feDB := rocks.NewFrontendDB(dist, lf)
	ins := provision.NewInstaller(lf, feDB, plan, "CentOS 6.5")
	feRes, err := ins.InstallFrontend(eng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frontend up: %d packages in %v\n", feRes.Packages, feRes.Duration)

	lesson(3, "Discover and kickstart the compute nodes (insert-ethers)")
	if err := ins.DiscoverComputes(); err != nil {
		log.Fatal(err)
	}
	for _, n := range lf.Computes {
		r, err := ins.InstallCompute(eng, n.Name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: %d packages, %v\n", r.Node, r.Packages, r.Duration)
	}
	fmt.Print("\nThe frontend's cluster database now knows every node:\n")
	fmt.Print(feDB.ListHostReport())

	lesson(4, "Run the cluster: jobs, monitoring, power")
	// The hardware is already provisioned by hand (lessons 2-3); the SDK
	// only assembles the running deployment around it.
	d, err := xcbc.NewVendor(
		xcbc.WithHardware(lf),
		xcbc.WithEngine(eng),
		xcbc.WithScheduler("torque"),
		xcbc.WithPreProvisioned(),
	).Deploy(ctx)
	if err != nil {
		log.Fatal(err)
	}
	d.AttachInstaller(ins)
	out, err := d.Exec("qsub -N first-job -l nodes=2:ppn=2,walltime=00:20:00 -u student job.sh")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("$ qsub ... -> %s\n", out)
	d.Monitor().Start(eng, time.Minute, 10)
	eng.RunUntil(eng.Now() + sim.Time(10*time.Minute))
	fmt.Print(d.Monitor().Report())

	lesson(5, "Break a node, then repair it the Rocks way")
	node, _ := lf.Lookup("compute-0-3")
	node.StartService("rogue-miner") // the student "experiments"
	fmt.Printf("compute-0-3 services before repair: %v\n", node.Services())
	if _, err := ins.Reinstall(eng, "compute-0-3"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compute-0-3 services after reinstall: %v\n", node.Services())

	eng.Run()
	fmt.Println("\nCourse complete. Install log highlights:")
	for i, line := range ins.Log() {
		if i%4 == 0 { // sample the log to keep the handout short
			fmt.Println("  " + line)
		}
	}
}
