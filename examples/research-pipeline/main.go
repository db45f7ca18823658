// Research pipeline: the paper's §7 scenario — a practicing scientist using
// a deskside cluster for real work. A bioinformatics pipeline (alignment ->
// sorting -> variant calling) runs as staged batch jobs on an XNIT-converted
// Limulus, software comes from environment modules, an MPI collective and a
// real Linpack solve validate the parallel stack, and on-demand power
// management keeps the office electricity bill down.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"xcbc/internal/hpl"
	"xcbc/internal/mpi"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
	"xcbc/internal/storage"
	"xcbc/pkg/xcbc"
)

func main() {
	ctx := context.Background()

	// The deskside Limulus arrives vendor-managed; XNIT converts it in
	// place: bio + compiler stacks, Torque+Maui, on-demand power. The
	// adoption runs as an asynchronous job — the scientist starts it and
	// watches the journal instead of blocking on the conversion.
	vendor, err := xcbc.NewVendor(
		xcbc.WithCluster("limulus"),
		xcbc.WithPowerPolicy(xcbc.PowerOnDemand),
	).Deploy(ctx)
	if err != nil {
		log.Fatal(err)
	}
	adoption, err := xcbc.NewXNIT(vendor,
		xcbc.WithProfiles("bio", "compilers"),
		xcbc.WithScheduler("torque"),
	).Start(ctx)
	if err != nil {
		log.Fatal(err)
	}
	d, err := adoption.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if evs, _ := adoption.Events(0); len(evs) > 0 {
		for _, ev := range evs {
			fmt.Printf("  [%s] %s\n", ev.Stage, ev.Message)
		}
	}
	eng := d.Engine()
	limulus := d.Hardware()
	fmt.Println("Limulus converted: bio + compiler stacks installed, Torque+Maui running,")
	fmt.Println("on-demand power management active.")

	// The scientist's environment: modules expose the tools.
	sess := d.Modules().NewSession(map[string]string{"PATH": "/usr/bin:/bin"})
	for _, m := range []string{"bwa", "samtools", "picard-tools"} {
		if err := sess.Load(m); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("modules loaded: %v\n\n", sess.List())

	// Stage the pipeline: each stage waits for the previous one by watching
	// job state, as a driver script would.
	stages := []struct {
		name  string
		cores int
		mins  int
	}{
		{"bwa-align", 8, 45},
		{"samtools-sort", 4, 20},
		{"gatk-call", 12, 90},
	}
	for _, st := range stages {
		id, err := d.Batch().Submit(&sched.Job{
			Name: st.name, User: "researcher", Cores: st.cores,
			Walltime: time.Duration(st.mins+15) * time.Minute,
			Runtime:  time.Duration(st.mins) * time.Minute,
			Script:   st.name + ".sh",
		})
		if err != nil {
			log.Fatal(err)
		}
		eng.Run() // run to completion before staging the next
		j, _ := d.Batch().Job(id)
		fmt.Printf("stage %-14s job %d: %-9s wait %-6v runtime %v\n",
			st.name, id, j.State, j.WaitTime(), j.Turnaround()-j.WaitTime())
	}

	// Validate the parallel stack: an MPI allreduce across 16 ranks (one per
	// core) on the modelled GigE fabric...
	world, err := mpi.NewWorld(limulus.Cores(), limulus.Network)
	if err != nil {
		log.Fatal(err)
	}
	err = world.Run(func(c *mpi.Comm) error {
		buf := []float64{float64(c.Rank() + 1)}
		if err := c.Allreduce(buf, mpi.OpSum); err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Printf("\nMPI allreduce over %d ranks: sum(1..%d) = %.0f; modelled comm time %.3f ms\n",
				c.Size(), c.Size(), buf[0], 1000*world.MaxCommSeconds())
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// ...and a real Linpack solve with the HPL residual check.
	res, err := hpl.Run(600, 48, 4, 7, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mini-HPL on this host: %v\n", res)

	// What would the full machine deliver? The calibrated model says:
	n := hpl.ProblemSize(limulus, 0.8)
	model := hpl.Model(limulus, n, hpl.ModelParams{})
	fmt.Printf("full-machine model: %v\n", model)

	// Storage management: results land on scratch, under a per-user quota.
	scratch := storage.NewFilesystem("scratch", "/scratch", storage.Scratch, 8000)
	scratch.SetQuota("researcher", 2000e9)
	if err := scratch.Write("/scratch/researcher/variants.vcf", "researcher", 40e9, eng.Now()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", scratch.Report())

	// Power accounting for the working day.
	eng.RunUntil(eng.Now() + sim.Time(4*time.Hour)) // idle afternoon
	wh := d.PowerManager().Finalize()
	fmt.Printf("\nenergy for the day: %.1f Wh (on-demand power management; idle nodes were powered off)\n", wh)
	for _, ev := range d.PowerManager().Events() {
		fmt.Println("  " + ev)
	}
}
