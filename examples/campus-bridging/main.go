// Campus bridging: the mission XCBC and XNIT exist for — "simplify
// migration between campus and national cyberinfrastructure". A researcher
// runs locally on an XCBC LittleFe, outgrows it, stages data to an
// XSEDE-scale resource through the Globus/GFFS tools the build installs,
// runs there, and brings results home. The same commands work on both ends.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"xcbc/internal/gridftp"
	"xcbc/internal/hpl"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
	"xcbc/internal/verify"
	"xcbc/pkg/xcbc"
)

func main() {
	ctx := context.Background()
	eng := sim.NewEngine()

	// The campus end: an XCBC LittleFe. The national end: a
	// Montana-State-class machine, also XCBC-built (Table 3 row 2), with
	// the same scheduler and the same commands. One shared engine keeps
	// the two ends on one simulated timeline.
	campus, err := xcbc.NewXCBC(
		xcbc.WithCluster("littlefe"),
		xcbc.WithScheduler("torque"),
		xcbc.WithEngine(eng),
	).Deploy(ctx)
	if err != nil {
		log.Fatal(err)
	}
	national, err := xcbc.NewXCBC(
		xcbc.WithCluster("montana"),
		xcbc.WithScheduler("torque"),
		xcbc.WithEngine(eng),
	).Deploy(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campus:   %s\n", campus.Hardware().Summary())
	fmt.Printf("national: %s\n", national.Hardware().Summary())

	// Verify both before trusting them with work.
	for _, d := range []*xcbc.Deployment{campus, national} {
		chk := &verify.Checker{
			Cluster:          d.Hardware(),
			DB:               d.Installer().DB,
			ComputeServices:  []string{"pbs_mom", "gmond"},
			FrontendServices: []string{"pbs_server", "maui", "gmetad"},
		}
		rep := chk.Run()
		fmt.Printf("verify %s: healthy=%v (%d findings)\n",
			d.Hardware().Name, rep.Healthy(), len(rep.Findings))
	}

	// Local run first: fits in 12 cores? Barely — the queue tells the story.
	out, err := campus.Exec("qsub -N big-md -l nodes=5:ppn=2,walltime=08:00:00 -runtime 14400 -u researcher md.sh")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncampus $ qsub big-md -> %s", out)
	fmt.Println(" (4 simulated hours on 10 cores)")

	// Size the problem: the model says what each machine can deliver.
	for _, d := range []*xcbc.Deployment{campus, national} {
		n := hpl.ProblemSize(d.Hardware(), 0.8)
		m := hpl.Model(d.Hardware(), n, hpl.ModelParams{})
		fmt.Printf("  %-24s Rmax ~ %7.1f GF\n", d.Hardware().Name, m.RmaxGF)
	}

	// Stage input data to the national machine through GFFS. Both endpoints
	// exist because both builds installed globus-connect-server + gffs.
	svc := gridftp.NewService(eng)
	campusEp := gridftp.NewEndpoint("littlefe#data", 1)
	nationalEp := gridftp.NewEndpoint("hyalite#scratch", 10)
	ns := gridftp.NewNamespace()
	ns.Mount("/xsede/iu/littlefe", campusEp)
	ns.Mount("/xsede/msu/hyalite", nationalEp)
	campusEp.Put("/home/researcher/system.top", 40e6)
	campusEp.Put("/home/researcher/traj-seed.trr", 2.5e9)

	var xfers []*gridftp.Transfer
	for _, f := range campusEp.List("/home/researcher") {
		x, err := ns.Copy(svc, "/xsede/iu/littlefe"+f.Path, "/xsede/msu/hyalite/scratch/researcher"+f.Path)
		if err != nil {
			log.Fatal(err)
		}
		xfers = append(xfers, x)
	}
	eng.Run()
	for _, x := range xfers {
		fmt.Printf("staged %-34s %6.0f MB in %8v verified=%v\n",
			x.DstPath, float64(x.Bytes)/1e6, x.Duration().Round(time.Millisecond), x.Verified)
	}

	// Run at scale with the *same* command vocabulary.
	id, err := national.Batch().Submit(&sched.Job{
		Name: "big-md-scaled", User: "researcher", Cores: 256,
		Walltime: 6 * time.Hour, Runtime: 90 * time.Minute, Script: "md.sh",
	})
	if err != nil {
		log.Fatal(err)
	}
	eng.Run()
	j, _ := national.Batch().Job(id)
	fmt.Printf("\nnational run: job %d %s in %v on %d cores across %d nodes\n",
		id, j.State, j.Turnaround(), j.Cores, len(j.Alloc))

	// Results come home the same way.
	nationalEp.Put("/scratch/researcher/results/md-final.trr", 5e9)
	back, err := ns.Copy(svc, "/xsede/msu/hyalite/scratch/researcher/results/md-final.trr",
		"/xsede/iu/littlefe/home/researcher/md-final.trr")
	if err != nil {
		log.Fatal(err)
	}
	eng.Run()
	fmt.Printf("results home: %.1f GB in %v (bottleneck: campus 1 Gbit uplink)\n",
		float64(back.Bytes)/1e9, back.Duration().Round(time.Millisecond))
	fmt.Printf("\naccounting on the national machine:\n%s", national.Batch().AccountingReport())
}
