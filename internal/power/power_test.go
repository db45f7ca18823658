package power

import (
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
	if AlwaysOn.String() != "always-on" || OnDemand.String() != "on-demand" || Scheduled.String() != "scheduled" {
		t.Fatal("policy strings")
	}
}
