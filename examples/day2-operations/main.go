// Day-2 operations: the part of the paper campus sites actually live
// with. Build a cluster asynchronously, open it as a Cluster resource,
// run a batch workload through the day-2 API, watch metrics and alerts,
// validate with HPL, and check software currency — the same operations
// the REST control plane serves at /api/v1/clusters/{id}.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"xcbc/pkg/xcbc"
)

func main() {
	// 1. Deploy asynchronously and open the day-2 surface. Builder.Open is
	// the one-call form; with Start you would poll the Handle and call
	// h.Cluster() once it reaches StateReady.
	cl, err := xcbc.NewXCBC(
		xcbc.WithCluster("littlefe"),
		xcbc.WithScheduler("torque"),
		xcbc.WithParallelism(4),
	).Open(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("operating %s (%s scheduler)\n\n", cl.Name(), cl.Scheduler())

	// 2. Submit a workload through the typed job API (Exec still accepts
	// qsub/sbatch lines for command-level compatibility).
	relax, err := cl.SubmitJob(xcbc.JobSpec{
		Name: "md-relax", User: "alice", Cores: 4,
		Walltime: time.Hour, Runtime: 20 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	assembly, err := cl.SubmitJob(xcbc.JobSpec{
		Name: "assembly", User: "carol", Cores: 10,
		Walltime: 2 * time.Hour, Runtime: time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted: job %d (%s), job %d (%s, %s)\n",
		relax.ID, relax.State, assembly.ID, assembly.Name, assembly.State)

	// 3. Metrics: gmetad polls every node once a virtual minute and
	// evaluates the alert rules; a read reports the last poll. Let a minute
	// pass, so a poll sees the workload.
	cl.Advance(time.Minute)
	m := cl.Metrics()
	fmt.Printf("\ncluster load %.2f across %d hosts", m.ClusterLoad, len(m.Nodes))
	if len(m.ActiveAlerts) > 0 {
		fmt.Printf(" — alerts: %v", m.ActiveAlerts)
	}
	fmt.Println()

	// 4. Advance simulated time: jobs finish, the queue drains.
	cl.Advance(90 * time.Minute)
	for _, j := range cl.Jobs() {
		fmt.Printf("job %d %-10s %-10s wait=%v\n", j.ID, j.Name, j.State, j.Started-j.Submitted)
	}

	// 5. HPL validation: the acceptance run the paper recommends — the
	// analytic model at the memory-sized problem plus a measured LU smoke
	// solve proving the numerics on this host.
	v, err := cl.Validate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHPL model: N=%d Rmax=%.1f of Rpeak=%.1f GFLOPS (%.1f%%)\n",
		v.N, v.RmaxGF, v.RpeakGF, 100*v.Efficiency)
	fmt.Printf("measured smoke solve: N=%d %.2f GFLOPS, residual %.3g, pass=%v\n",
		v.SmokeN, v.SmokeGFLOPS, v.SmokeResidual, v.SmokePass)

	// 6. Software currency: the periodic update check, per node.
	u := cl.CheckUpdates(xcbc.UpdateNotify, time.Date(2015, 9, 8, 12, 0, 0, 0, time.UTC))
	fmt.Printf("\nupdate check (%s): %d pending across %d nodes\n",
		u.Policy, u.PendingTotal(), len(u.ByNode))
}
