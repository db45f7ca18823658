package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

// Property tests on scheduling invariants that must hold for any workload
// under any policy:
//
//  1. conservation: every submitted job ends in exactly one terminal state;
//  2. no oversubscription: at no point does any node's allocation exceed
//     its core count;
//  3. no lost cores: after the queue drains, free cores equal capacity.

func policies() []Policy {
	return []Policy{TorqueMaui{}, PlainFIFO{}, Slurm{}, SGE{}}
}

func TestSchedulingInvariantsProperty(t *testing.T) {
	f := func(seed int64, policyIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		policy := policies()[int(policyIdx)%len(policies())]
		c := cluster.NewLittleFe()
		c.PowerOnAll()
		eng := sim.NewEngine()
		m := NewManager(eng, c, policy)

		// Instrument oversubscription: check after every event by
		// interleaving audit events with the workload.
		ok := true
		audit := func(*sim.Engine) {
			for i, n := range c.Computes {
				if m.free[i] < 0 || m.free[i] > n.Cores() {
					ok = false
				}
			}
			used := 0
			for _, j := range m.running {
				for _, s := range j.Alloc {
					used += s.Cores
				}
			}
			freeSum := 0
			for i := range c.Computes {
				freeSum += m.free[i]
			}
			if used+freeSum != 10 {
				ok = false
			}
		}

		jobs := 5 + rng.Intn(15)
		submitted := 0
		for i := 0; i < jobs; i++ {
			delay := time.Duration(rng.Intn(3600)) * time.Second
			cores := 1 + rng.Intn(12) // sometimes > capacity: rejected
			run := time.Duration(1+rng.Intn(7200)) * time.Second
			wall := time.Duration(1+rng.Intn(7200)) * time.Second
			eng.After(delay, "submit", func(*sim.Engine) {
				if _, err := m.Submit(&Job{Name: "p", User: "u", Cores: cores,
					Walltime: wall, Runtime: run}); err == nil {
					submitted++
				}
				audit(nil)
			})
		}
		// Random cancellations.
		for i := 0; i < rng.Intn(4); i++ {
			id := 1 + rng.Intn(jobs)
			eng.After(time.Duration(rng.Intn(7200))*time.Second, "cancel", func(*sim.Engine) {
				_ = m.Cancel(id) // may fail if unknown/finished: fine
				audit(nil)
			})
		}
		eng.Run()
		audit(nil)
		if !ok {
			return false
		}
		// Conservation: everything submitted is in history, terminal.
		if len(m.queue) != 0 || len(m.running) != 0 {
			return false
		}
		if len(m.History()) != submitted {
			return false
		}
		for _, j := range m.History() {
			if !j.terminal() {
				return false
			}
		}
		// No lost cores.
		return m.totalFree() == 10
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBackfillNeverDelaysHeadProperty(t *testing.T) {
	// EASY-backfill safety: under TorqueMaui, the head job's start time must
	// never exceed the latest walltime bound of jobs running when it was
	// blocked. Weaker but checkable form: with one blocking job of walltime
	// W, the head starts by W regardless of backfill candidates.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := cluster.NewLittleFe()
		c.PowerOnAll()
		eng := sim.NewEngine()
		m := NewManager(eng, c, TorqueMaui{})
		wall := time.Duration(30+rng.Intn(90)) * time.Minute
		m.Submit(&Job{Name: "base", User: "u", Cores: 8, Walltime: wall, Runtime: wall})
		headID, _ := m.Submit(&Job{Name: "head", User: "u", Cores: 10,
			Walltime: time.Hour, Runtime: 10 * time.Minute})
		// A storm of random backfill candidates.
		for i := 0; i < 5+rng.Intn(10); i++ {
			m.Submit(&Job{Name: "bf", User: "u", Cores: 1 + rng.Intn(2),
				Walltime: time.Duration(1+rng.Intn(180)) * time.Minute,
				Runtime:  time.Duration(1+rng.Intn(180)) * time.Minute})
		}
		eng.Run()
		head, _ := m.Job(headID)
		return head.State == StateCompleted && head.StartTime <= sim.Time(wall)
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
