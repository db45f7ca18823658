package core

import (
	"sync"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/monitor"
	"xcbc/internal/power"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
)

// Integration tests covering the paper's §4 deployments end to end: the
// from-scratch sites build with XCBC, the repo sites convert with XNIT, and
// the resulting systems run real workloads.

func TestXCBCOnMarshall(t *testing.T) {
	// Marshall: torn down and rebuilt from scratch with XCBC (GPU nodes and
	// all). 22 nodes, so this is the largest full build in the suite.
	eng := sim.NewEngine()
	c := cluster.NewMarshall()
	d, err := BuildXCBCContext(t.Context(), eng, c, Options{Scheduler: "torque"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.CompatReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() != rep.Total() {
		t.Fatalf("Marshall rebuild not compatible:\n%s", rep.Summary())
	}
	// The GPU nodes kept their accelerators through provisioning.
	gpuNodes := 0
	for _, n := range c.Computes {
		if len(n.Accels) > 0 {
			gpuNodes++
		}
	}
	if gpuNodes != 8 {
		t.Fatalf("GPU nodes = %d, want 8", gpuNodes)
	}
	// A 264-core job spans the whole machine.
	id, err := d.Batch.Submit(&sched.Job{Name: "full", User: "u", Cores: 252,
		Walltime: time.Hour, Runtime: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	j, _ := d.Batch.Job(id)
	if j.State != sched.StateCompleted || len(j.Alloc) != 21 {
		t.Fatalf("full-machine job: %v across %d nodes", j.State, len(j.Alloc))
	}
}

func TestXCBCOnHoward(t *testing.T) {
	// Howard: the chemistry professor's cluster, rebuilt from scratch.
	eng := sim.NewEngine()
	d, err := BuildXCBCContext(t.Context(), eng, cluster.NewHoward(), Options{Scheduler: "sge"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.CompatReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() != rep.Total() {
		t.Fatalf("Howard build:\n%s", rep.Summary())
	}
	// Chemistry workload through the PBS-compatible SGE commands.
	if _, err := d.Exec("qsub -N gromacs -l nodes=4:ppn=12,walltime=02:00:00 -u alfred md.sh"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
}

func TestXNITOnPBARC(t *testing.T) {
	// PBARC (Univ. of Hawaii): XNIT on an existing commercial stack.
	eng := sim.NewEngine()
	c := cluster.NewPBARC()
	c.PowerOnAll()
	for _, n := range c.Nodes() {
		n.SetOS("CommercialOS 6")
	}
	d, err := NewVendorDeployment(eng, c, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	xnit, err := NewXNITRepository()
	if err != nil {
		t.Fatal(err)
	}
	ConfigureXNIT(d, xnit)
	// The paper: Hawaii integrated *particular components* to supplement the
	// commercial system — a partial adoption, not full conversion.
	if _, err := d.InstallProfile("bio"); err != nil {
		t.Fatal(err)
	}
	rep, err := d.CompatReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() == rep.Total() {
		t.Fatal("partial adoption should not be fully compatible")
	}
	if rep.Score() == 0 {
		t.Fatal("partial adoption should pass some checks")
	}
	// The bio stack is nonetheless usable everywhere.
	for _, n := range c.Nodes() {
		if !n.Packages().Has("ncbi-blast") {
			t.Fatalf("%s missing blast", n.Name)
		}
	}
}

func TestMonitoringIntegratedWithWorkload(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBCContext(t.Context(), eng, cluster.NewLittleFe(), Options{Scheduler: "torque"})
	if err != nil {
		t.Fatal(err)
	}
	d.Monitor.Start(eng, time.Minute, 0)
	am := monitor.NewAlertManager(d.Monitor, monitor.Rule{Name: "hot", Metric: "load_one", Threshold: 0.9})

	if _, err := d.Exec("qsub -N burn -l nodes=5:ppn=2,walltime=01:00:00 -runtime 1800 -u u burn.sh"); err != nil {
		t.Fatal(err)
	}
	// Drive 10 minutes of monitoring during the burn.
	deadline := eng.Now() + sim.Time(10*time.Minute)
	for eng.Now() < deadline && eng.Step() {
		am.Evaluate(eng.Now(), sim.Time(time.Minute))
	}
	if len(am.Active()) == 0 {
		t.Fatal("full-machine burn should raise load alerts")
	}
	// Drain and confirm alerts clear after the job ends plus a poll.
	eng.RunUntil(eng.Now() + sim.Time(time.Hour))
	am.Evaluate(eng.Now(), sim.Time(time.Minute))
	// Polling never stops (count 0 re-arms forever), so run out the day
	// rather than the engine.
	for eng.Now() < sim.Time(24*time.Hour) && eng.Step() {
	}
	am.Evaluate(eng.Now(), sim.Time(time.Minute))
	for _, a := range am.Active() {
		if a != "" && a[len(a)-9:] != "host-down" {
			t.Fatalf("load alert still active after drain: %v", am.Active())
		}
	}
}

// TestSampleMetricsAllocations pins the metrics read path: a warm
// SampleMetrics polls, evaluates the alert rules and builds the snapshot
// from one locked pass over each host's latest row, so what it allocates
// is the snapshot's node list and nothing per host or per metric.
func TestSampleMetricsAllocations(t *testing.T) {
	d, err := BuildXCBCContext(t.Context(), sim.NewEngine(), cluster.NewLittleFe(), Options{Scheduler: "torque"})
	if err != nil {
		t.Fatal(err)
	}
	ops := d.Operations()
	// Before the first poll no host reports: Nodes is nil, not empty.
	if snap := ops.Metrics(); snap.Nodes != nil {
		t.Fatalf("before any poll Nodes = %v, want nil", snap.Nodes)
	}
	if snap := ops.SampleMetrics(); len(snap.Nodes) != d.Cluster.NodeCount() {
		t.Fatalf("snapshot holds %d nodes, want %d", len(snap.Nodes), d.Cluster.NodeCount())
	}
	if n := testing.AllocsPerRun(50, func() { ops.SampleMetrics() }); n > 1 {
		t.Errorf("a warm SampleMetrics allocates %v times, want at most 1", n)
	}
}

// TestOperationsIsCreatedOnce races the first use of a deployment's day-2
// adapter: every caller gets the same one.
func TestOperationsIsCreatedOnce(t *testing.T) {
	d, err := BuildXCBCContext(t.Context(), sim.NewEngine(), cluster.NewLittleFe(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Operations, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = d.Operations()
		}()
	}
	wg.Wait()
	for i, ops := range got {
		if ops == nil || ops != got[0] {
			t.Fatalf("caller %d got adapter %p, caller 0 got %p", i, ops, got[0])
		}
	}
	if d.Operations() != got[0] {
		t.Fatal("a later call minted a second adapter")
	}
}

func TestPowerManagedXCBCLittleFe(t *testing.T) {
	// The paper ships LittleFe without power management, but nothing stops
	// an administrator enabling the policy; the deployment wiring must hold.
	eng := sim.NewEngine()
	d, err := BuildXCBCContext(t.Context(), eng, cluster.NewLittleFe(), Options{
		Scheduler: "torque", PowerPolicy: power.OnDemand,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("qsub -N j -l nodes=5:ppn=2,walltime=01:00:00 -runtime 600 -u u j.sh"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	off := 0
	for _, n := range d.Cluster.Computes {
		if n.Power() == cluster.PowerOff {
			off++
		}
	}
	if off != 5 {
		t.Fatalf("all idle computes should power down, got %d", off)
	}
	if d.Power.Finalize() <= 0 {
		t.Fatal("energy accounting empty")
	}
}

func TestDeploymentUtilizationAndAccounting(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBCContext(t.Context(), eng, cluster.NewLittleFe(), Options{Scheduler: "torque"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.Exec("qsub -N acct -l nodes=1:ppn=2,walltime=00:30:00 -runtime 900 -u alice a.sh"); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if got := len(d.Batch.Records()); got != 5 {
		t.Fatalf("records = %d", got)
	}
	sums := d.Batch.UserSummaries()
	if len(sums) != 1 || sums[0].User != "alice" || sums[0].Jobs != 5 {
		t.Fatalf("summaries = %+v", sums)
	}
	if d.Batch.Utilization() <= 0 {
		t.Fatal("utilization should be positive")
	}
}
