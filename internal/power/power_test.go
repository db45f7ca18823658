package power

import (
	"fmt"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
)

func limulus(policy Policy) (*sim.Engine, *cluster.Cluster, *sched.Manager, *Manager) {
	c := cluster.NewLimulusHPC200()
	c.PowerOnAll()
	eng := sim.NewEngine()
	batch := sched.NewManager(eng, c, sched.TorqueMaui{})
	pm := NewManager(eng, c, batch, policy)
	return eng, c, batch, pm
}

func TestIdleNodesPowerDownAfterGrace(t *testing.T) {
	eng, c, batch, pm := limulus(OnDemand)
	pm.IdleGrace = 5 * time.Minute
	// Run a 10-minute job on all 12 compute cores, then idle.
	batch.Submit(&sched.Job{Name: "j", User: "u", Cores: 12, Walltime: time.Hour, Runtime: 10 * time.Minute})
	eng.Run()
	offCount := 0
	for _, n := range c.Computes {
		if n.Power() == cluster.PowerOff {
			offCount++
		}
	}
	if offCount != 3 {
		t.Fatalf("powered-off computes = %d, want 3", offCount)
	}
	if c.Frontend.Power() != cluster.PowerOn {
		t.Fatal("frontend must never be powered down")
	}
	if len(pm.Events()) == 0 {
		t.Fatal("no power events logged")
	}
}

func TestAlwaysOnNeverPowersDown(t *testing.T) {
	eng, c, batch, pm := limulus(AlwaysOn)
	pm.IdleGrace = time.Minute
	batch.Submit(&sched.Job{Name: "j", User: "u", Cores: 12, Walltime: time.Hour, Runtime: 10 * time.Minute})
	eng.Run()
	for _, n := range c.Computes {
		if n.Power() != cluster.PowerOn {
			t.Fatalf("%s powered down under always-on", n.Name)
		}
	}
}

func TestWakeOnDemand(t *testing.T) {
	eng, c, batch, pm := limulus(OnDemand)
	pm.IdleGrace = time.Minute
	pm.BootDelay = 90 * time.Second
	// Let everything idle down.
	batch.Submit(&sched.Job{Name: "warm", User: "u", Cores: 4, Walltime: time.Hour, Runtime: time.Minute})
	eng.Run()
	// All computes should now be off (drained + grace elapsed).
	for _, n := range c.Computes {
		if n.Power() != cluster.PowerOff {
			t.Fatalf("%s should be off before demand", n.Name)
		}
	}
	// New demand: a job needing 8 cores wakes nodes after the boot delay.
	id, err := batch.Submit(&sched.Job{Name: "burst", User: "u", Cores: 8, Walltime: time.Hour, Runtime: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := batch.Job(id)
	if j.State != sched.StateQueued {
		t.Fatalf("job should queue while nodes boot: %v", j.State)
	}
	eng.Run()
	if j.State != sched.StateCompleted {
		t.Fatalf("job state = %v", j.State)
	}
	if j.WaitTime() < 90*time.Second {
		t.Fatalf("wait %v should include boot delay", j.WaitTime())
	}
}

// sitePolicy is a policy sched.PolicyByName does not know: Policy is an
// interface, so a site can bring its own.
type sitePolicy struct{ sched.TorqueMaui }

func (sitePolicy) Name() string { return "site-fifo" }

// TestUnknownPolicyKeepsSchedulingAcrossAWake: a woken node's boot reruns
// placement under the batch system's own policy, whatever its name.
func TestUnknownPolicyKeepsSchedulingAcrossAWake(t *testing.T) {
	c := cluster.NewLimulusHPC200()
	c.PowerOnAll()
	eng := sim.NewEngine()
	batch := sched.NewManager(eng, c, sitePolicy{})
	pm := NewManager(eng, c, batch, OnDemand)
	pm.IdleGrace = time.Minute
	eng.Run() // every compute idles down
	burst, err := batch.Submit(&sched.Job{Name: "burst", User: "u", Cores: 8, Walltime: time.Hour, Runtime: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + sim.Time(pm.BootDelay))
	late, err := batch.Submit(&sched.Job{Name: "late", User: "u", Cores: 2, Walltime: time.Hour, Runtime: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for _, id := range []int{burst, late} {
		if j, _ := batch.Job(id); j.State != sched.StateCompleted {
			t.Errorf("%s is %v, want completed", j.Name, j.State)
		}
	}
	if j, _ := batch.Job(burst); j.WaitTime() < pm.BootDelay {
		t.Errorf("burst waited %v, want at least the %v boot", j.WaitTime(), pm.BootDelay)
	}
	if got := batch.PolicyName(); got != "site-fifo" {
		t.Errorf("PolicyName = %q after the wake, want site-fifo", got)
	}
}

// TestBootingNodeIsNotWokenTwice covers a second shortfall arriving while
// the node woken for the first is still booting: the booting node reads
// PowerOff until its boot fires, but it is already covering the cores, so
// it is neither woken again nor joined by another node.
func TestBootingNodeIsNotWokenTwice(t *testing.T) {
	eng, c, batch, pm := limulus(OnDemand)
	pm.IdleGrace = time.Minute
	eng.Run()
	for _, n := range c.Computes {
		if n.Power() != cluster.PowerOff {
			t.Fatalf("%s should be off before demand", n.Name)
		}
	}
	before := len(pm.Events())
	healthy := make([]bool, len(c.Computes))
	batch.WakeRequest(4, healthy)
	eng.RunUntil(eng.Now() + sim.Time(pm.BootDelay/2))
	batch.WakeRequest(4, healthy)
	wakes := map[string]int{}
	for _, e := range pm.Events()[before:] {
		var node string
		if _, err := fmt.Sscanf(e, "waking node %s at", &node); err == nil {
			wakes[node]++
		}
	}
	if len(wakes) != 1 {
		t.Errorf("woke %v, want one node for a 4-core shortfall", wakes)
	}
	for node, n := range wakes {
		if n != 1 {
			t.Errorf("node %s woken %d times within one boot delay", node, n)
		}
	}
}

func TestEnergyAccountingOnDemandBeatsAlwaysOn(t *testing.T) {
	run := func(policy Policy) float64 {
		eng, _, batch, pm := limulus(policy)
		pm.IdleGrace = 2 * time.Minute
		batch.Submit(&sched.Job{Name: "j", User: "u", Cores: 12, Walltime: time.Hour, Runtime: 10 * time.Minute})
		eng.Run()
		// Idle for the rest of an 8-hour day.
		eng.RunUntil(sim.Time(8 * time.Hour))
		return pm.Finalize()
	}
	alwaysOn := run(AlwaysOn)
	onDemand := run(OnDemand)
	if onDemand >= alwaysOn {
		t.Fatalf("on-demand (%.1f Wh) should use less than always-on (%.1f Wh)", onDemand, alwaysOn)
	}
	// The saving should be substantial: 3 of 4 nodes off ~7.8 of 8 hours.
	if onDemand > alwaysOn*0.6 {
		t.Errorf("saving too small: %.1f vs %.1f Wh", onDemand, alwaysOn)
	}
}

func TestGraceCancelledWhenWorkArrives(t *testing.T) {
	eng, c, batch, pm := limulus(OnDemand)
	pm.IdleGrace = 10 * time.Minute
	// Short job finishes, then new work arrives within the grace period.
	batch.Submit(&sched.Job{Name: "a", User: "u", Cores: 12, Walltime: time.Hour, Runtime: 2 * time.Minute})
	eng.After(5*time.Minute, "resubmit", func(*sim.Engine) {
		batch.Submit(&sched.Job{Name: "b", User: "u", Cores: 12, Walltime: time.Hour, Runtime: 2 * time.Minute})
	})
	eng.RunUntil(sim.Time(8 * time.Minute))
	for _, n := range c.Computes {
		if n.Power() == cluster.PowerOff {
			t.Fatalf("%s powered off while busy (grace not honored)", n.Name)
		}
	}
	eng.Run()
}

func TestPolicyStrings(t *testing.T) {
	if AlwaysOn.String() != "always-on" || OnDemand.String() != "on-demand" {
		t.Fatal("policy strings")
	}
}

// TestNodeFailedWhileBootingStaysOff: a node that fails while the power
// manager boots it is not powered on when its boot fires. It stays off —
// drawing nothing, and free to be powered down again once repaired —
// instead of coming up with none of its cores free. Its cores no longer
// cover the shortfall, so a healthy sleeping node is woken in its place and
// the queued work runs without waiting for the repair.
func TestNodeFailedWhileBootingStaysOff(t *testing.T) {
	eng, c, batch, pm := limulus(OnDemand)
	pm.IdleGrace = time.Minute
	batch.Submit(&sched.Job{Name: "warm", User: "u", Cores: 4, Walltime: time.Hour, Runtime: time.Minute})
	eng.Run() // every compute idles down
	id, err := batch.Submit(&sched.Job{Name: "burst", User: "u", Cores: 8, Walltime: time.Hour, Runtime: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	victim := c.Computes[0] // woken first
	if err := batch.NodeFail(victim.Name); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + sim.Time(pm.BootDelay))
	if victim.Power() != cluster.PowerOff {
		t.Fatalf("%s failed while booting but reads %s once its boot fired", victim.Name, victim.Power())
	}
	burst, _ := batch.Job(id)
	if burst.State != sched.StateRunning || len(burst.Alloc) != 2 || burst.Alloc[0].Node == 0 || burst.Alloc[1].Node == 0 {
		t.Fatalf("burst is %v on %v once the boots fired, want running on the two healthy computes", burst.State, burst.Alloc)
	}
	eng.Run()
	pm.Finalize()
	before := victim.EnergyWh()
	eng.RunUntil(eng.Now() + sim.Time(time.Hour))
	if pm.Finalize(); victim.EnergyWh() != before || victim.Power() != cluster.PowerOff {
		t.Fatalf("%s draws power while failed: %v Wh -> %v Wh, %s", victim.Name, before, victim.EnergyWh(), victim.Power())
	}
	if err := batch.NodeRepair(victim.Name); err != nil {
		t.Fatal(err)
	}
	if victim.Power() != cluster.PowerOn {
		t.Fatalf("%s reads %s after repair", victim.Name, victim.Power())
	}
	eng.Run()
	if queued, running, _ := batch.JobCounts(); queued+running != 0 || batch.NodeBusy(0) {
		t.Fatalf("after repair: %d queued, %d running, %s busy %v", queued, running, victim.Name, batch.NodeBusy(0))
	}
}
