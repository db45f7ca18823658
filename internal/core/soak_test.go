package core

import (
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/power"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
	"xcbc/internal/workload"
)

// TestWeekLongSoak drives a full deployment — scheduler, power management,
// and monitoring together — through a simulated week of generated workload
// and checks global invariants at the end. This is the "does the whole
// system hold together" test.
func TestWeekLongSoak(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBCContext(t.Context(), eng, cluster.NewLittleFe(), Options{
		Scheduler:   "torque",
		PowerPolicy: power.OnDemand,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Monitor.Start(eng, 5*time.Minute, 0)

	stream := workload.Generate(workload.Spec{
		Seed: 20150531, Jobs: 150,
		MeanInterarrival: 40 * time.Minute,
		CoresMax:         12,
		RuntimeMin:       5 * time.Minute,
		RuntimeMax:       3 * time.Hour,
	})
	workload.Replay(eng, d.Batch, stream)

	week := eng.Now() + sim.Time(7*24*time.Hour)
	for eng.Now() < week && eng.Step() {
	}
	eng.RunUntil(week)

	st := workload.Collect(d.Batch)
	if st.Jobs != 150 {
		t.Fatalf("jobs processed = %d", st.Jobs)
	}
	if st.Completed != 150 {
		t.Fatalf("completed = %d (walltime kills count as completed-with-timeout here)", st.Completed)
	}
	if st.Utilization <= 0 || st.Utilization > 1 {
		t.Fatalf("utilization = %v", st.Utilization)
	}
	// Energy accounting is sane: more than zero, less than everything-on
	// for the whole week.
	wh := d.Power.Finalize()
	maxWh := 0.0
	for _, n := range d.Cluster.Nodes() {
		n.SetPower(cluster.PowerOn)
		maxWh += n.DrawWatts() * 7 * 24
	}
	if wh <= 0 || wh >= maxWh {
		t.Fatalf("energy = %v Wh (always-on bound %v)", wh, maxWh)
	}
	// Accounting consistency: records match history; usage sums match.
	if len(d.Batch.Records()) != 150 {
		t.Fatalf("records = %d", len(d.Batch.Records()))
	}
	var recCoreSecs float64
	for _, r := range d.Batch.Records() {
		recCoreSecs += r.CoreSecs
	}
	var usageSum float64
	for _, v := range d.Batch.Usage() {
		usageSum += v
	}
	if diff := recCoreSecs - usageSum; diff < -1 || diff > 1 {
		t.Fatalf("accounting mismatch: records %v vs usage %v", recCoreSecs, usageSum)
	}
	// Monitoring ran all week.
	if _, polls, _ := d.Monitor.Latest(nil); polls < 100 {
		t.Fatalf("polls = %d", polls)
	}
}

// TestXCBCWithAllOptionalRolls builds with every Table 1 roll enabled.
func TestXCBCWithAllOptionalRolls(t *testing.T) {
	eng := sim.NewEngine()
	d, err := BuildXCBCContext(t.Context(), eng, cluster.NewLittleFe(), Options{
		Scheduler:     "torque",
		OptionalRolls: OptionalRollNames,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe := d.Cluster.Frontend
	for _, name := range []string{"tripwire", "htcondor", "qemu-kvm", "perl", "python3", "httpd", "zfs", "mpitests"} {
		if !fe.Packages().Has(name) {
			t.Errorf("frontend missing roll package %s", name)
		}
	}
	rep, err := d.CompatReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() != rep.Total() {
		t.Errorf("all-rolls build:\n%s", rep.Summary())
	}
}

// TestXCBCOnKansasScale builds the largest Table 3 machine (220 nodes) end
// to end — the scalability check for the provisioning path.
func TestXCBCOnKansasScale(t *testing.T) {
	if testing.Short() {
		t.Skip("220-node build in -short mode")
	}
	eng := sim.NewEngine()
	c := cluster.NewKansas()
	d, err := BuildXCBCContext(t.Context(), eng, c, Options{Scheduler: "slurm"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Installer.DB.Hosts()); got != 219 {
		t.Fatalf("registered computes = %d", got)
	}
	// A 1000-core job spans many nodes.
	id, err := d.Batch.Submit(&sched.Job{Name: "big", User: "u", Cores: 1000,
		Walltime: time.Hour, Runtime: 20 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	j, _ := d.Batch.Job(id)
	if j.State != sched.StateCompleted || len(j.Alloc) < 125 {
		t.Fatalf("big job: %v across %d nodes", j.State, len(j.Alloc))
	}
}
