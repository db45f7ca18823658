package sched

import (
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

// littlefe returns a powered-on LittleFe (5 compute nodes x 2 cores = 10
// compute cores) plus a fresh engine and manager.
func littlefe(t *testing.T, p Policy) (*sim.Engine, *Manager) {
	t.Helper()
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	eng := sim.NewEngine()
	return eng, NewManager(eng, c, p)
}

func job(name, user string, cores int, wall, run time.Duration) *Job {
	return &Job{Name: name, User: user, Cores: cores, Walltime: wall, Runtime: run}
}

func TestSubmitRunComplete(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	id, err := m.Submit(job("hello", "alice", 2, time.Hour, 10*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	j, ok := m.Job(id)
	if !ok || j.State != StateRunning {
		t.Fatalf("job should start immediately: %v", j)
	}
	if len(j.Alloc) == 0 {
		t.Fatal("no allocation recorded")
	}
	eng.Run()
	if j.State != StateCompleted {
		t.Fatalf("state = %v", j.State)
	}
	if j.Turnaround() != 10*time.Minute {
		t.Fatalf("turnaround = %v", j.Turnaround())
	}
	if j.WaitTime() != 0 {
		t.Fatalf("wait = %v", j.WaitTime())
	}
	if len(m.History()) != 1 {
		t.Fatal("history should have the job")
	}
}

func TestRejectsImpossibleJobs(t *testing.T) {
	_, m := littlefe(t, TorqueMaui{})
	if _, err := m.Submit(job("toobig", "a", 1000, time.Hour, time.Minute)); err == nil {
		t.Fatal("oversized job should be rejected")
	}
	if _, err := m.Submit(job("zero", "a", 0, time.Hour, time.Minute)); err == nil {
		t.Fatal("zero-core job should be rejected")
	}
}

func TestQueueingWhenFull(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	// Fill all 10 compute cores.
	id1, _ := m.Submit(job("big", "alice", 10, time.Hour, 30*time.Minute))
	id2, _ := m.Submit(job("waiter", "bob", 4, time.Hour, 10*time.Minute))
	j1, _ := m.Job(id1)
	j2, _ := m.Job(id2)
	if j1.State != StateRunning || j2.State != StateQueued {
		t.Fatalf("states = %v, %v", j1.State, j2.State)
	}
	eng.Run()
	if j2.State != StateCompleted {
		t.Fatalf("waiter state = %v", j2.State)
	}
	if j2.WaitTime() != 30*time.Minute {
		t.Fatalf("waiter wait = %v, want 30m", j2.WaitTime())
	}
}

func TestWalltimeKill(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	id, _ := m.Submit(job("runaway", "alice", 2, 10*time.Minute, 2*time.Hour))
	eng.Run()
	j, _ := m.Job(id)
	if j.State != StateTimeout {
		t.Fatalf("state = %v, want timeout", j.State)
	}
	if got := j.Turnaround(); got != 10*time.Minute {
		t.Fatalf("killed at %v, want walltime 10m", got)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	id1, _ := m.Submit(job("big", "alice", 10, time.Hour, 30*time.Minute))
	id2, _ := m.Submit(job("queued", "bob", 4, time.Hour, 10*time.Minute))
	if err := m.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	j2, _ := m.Job(id2)
	if j2.State != StateCancelled {
		t.Fatalf("queued cancel: %v", j2.State)
	}
	if err := m.Cancel(id1); err != nil {
		t.Fatal(err)
	}
	j1, _ := m.Job(id1)
	if j1.State != StateCancelled {
		t.Fatalf("running cancel: %v", j1.State)
	}
	if m.totalFree() != 10 {
		t.Fatalf("cores leaked: free %d of 10", m.totalFree())
	}
	if err := m.Cancel(9999); err == nil {
		t.Fatal("cancel of unknown job should fail")
	}
	eng.Run()
}

func TestBackfillTorque(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	// 8 cores busy for 1h; head job needs 10 (blocked); a small short job
	// should backfill into the 2 idle cores.
	m.Submit(job("base", "alice", 8, time.Hour, time.Hour))
	idBig, _ := m.Submit(job("blocked-head", "bob", 10, time.Hour, 10*time.Minute))
	idSmall, _ := m.Submit(job("backfiller", "carol", 2, 30*time.Minute, 20*time.Minute))
	big, _ := m.Job(idBig)
	small, _ := m.Job(idSmall)
	if big.State != StateQueued {
		t.Fatalf("head should be blocked: %v", big.State)
	}
	if small.State != StateRunning {
		t.Fatalf("small job should backfill: %v", small.State)
	}
	eng.Run()
	// Head must not have been delayed past the base job's completion.
	if big.StartTime != sim.Time(time.Hour) {
		t.Fatalf("head started at %v, want 1h (undelayed)", big.StartTime)
	}
}

func TestBackfillRespectsShadow(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	m.Submit(job("base", "alice", 8, time.Hour, time.Hour))
	m.Submit(job("blocked-head", "bob", 10, time.Hour, 10*time.Minute))
	// This candidate's walltime (2h) exceeds the shadow (1h): must NOT start.
	idLong, _ := m.Submit(job("too-long", "carol", 2, 2*time.Hour, 90*time.Minute))
	long, _ := m.Job(idLong)
	if long.State != StateQueued {
		t.Fatalf("long job must not backfill: %v", long.State)
	}
	eng.Run()
	if long.State != StateCompleted {
		t.Fatalf("long job should eventually run: %v", long.State)
	}
}

func TestSGENoBackfillStrictOrder(t *testing.T) {
	eng, m := littlefe(t, SGE{})
	m.Submit(job("base", "alice", 8, time.Hour, time.Hour))
	idHead, _ := m.Submit(job("head", "bob", 10, time.Hour, 10*time.Minute))
	idSmall, _ := m.Submit(job("small", "carol", 2, 30*time.Minute, 20*time.Minute))
	head, _ := m.Job(idHead)
	small, _ := m.Job(idSmall)
	if head.State != StateQueued || small.State != StateQueued {
		t.Fatalf("SGE should not backfill: head=%v small=%v", head.State, small.State)
	}
	eng.Run()
}

func TestSGEFairShare(t *testing.T) {
	eng, m := littlefe(t, SGE{})
	// alice consumes lots of core-seconds first.
	m.Submit(job("hog", "alice", 10, time.Hour, time.Hour))
	eng.Run()
	// Saturate, then queue alice and bob; bob (no usage) should go first
	// even though alice submitted earlier.
	m.Submit(job("base", "carol", 10, time.Hour, time.Hour))
	idAlice, _ := m.Submit(job("alice2", "alice", 10, time.Hour, 10*time.Minute))
	idBob, _ := m.Submit(job("bob1", "bob", 10, time.Hour, 10*time.Minute))
	eng.Run()
	a, _ := m.Job(idAlice)
	b, _ := m.Job(idBob)
	if b.StartTime >= a.StartTime {
		t.Fatalf("fair share: bob (start %v) should run before alice (start %v)", b.StartTime, a.StartTime)
	}
	usage := m.Usage()
	if usage["alice"] <= usage["bob"] {
		t.Fatalf("usage accounting wrong: %v", usage)
	}
}

func TestSlurmFavorsSmallJobsAtEqualAge(t *testing.T) {
	eng, m := littlefe(t, Slurm{})
	// Saturate so both contenders queue at the same instant.
	m.Submit(job("base", "x", 10, time.Hour, time.Hour))
	idBig, _ := m.Submit(job("big", "a", 8, time.Hour, 10*time.Minute))
	idSmall, _ := m.Submit(job("small", "b", 2, time.Hour, 10*time.Minute))
	eng.Run()
	big, _ := m.Job(idBig)
	small, _ := m.Job(idSmall)
	if small.StartTime > big.StartTime {
		t.Fatalf("slurm size factor: small (%v) should start no later than big (%v)",
			small.StartTime, big.StartTime)
	}
}

func TestSlurmAgeDominatesEventually(t *testing.T) {
	// An old large job must beat a fresh small one once age accumulates.
	s := Slurm{}
	now := sim.Time(2 * time.Hour)
	oldBig := &Job{ID: 1, Cores: 10, SubmitTime: 0}
	freshSmall := &Job{ID: 2, Cores: 1, SubmitTime: now - sim.Time(time.Second)}
	if !s.Less(oldBig, freshSmall, now, nil) {
		t.Fatal("aged job should outrank fresh small job")
	}
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"torque": "torque", "torque+maui": "torque", "maui": "torque",
		"slurm": "slurm", "sge": "sge", "gridengine": "sge",
	} {
		p, ok := PolicyByName(name)
		if !ok || p.Name() != want {
			t.Errorf("PolicyByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := PolicyByName("cron"); ok {
		t.Error("unknown scheduler should not resolve")
	}
}

func TestSetPolicyReschedulesQueue(t *testing.T) {
	eng, m := littlefe(t, SGE{})
	m.Submit(job("base", "alice", 8, time.Hour, time.Hour))
	m.Submit(job("head", "bob", 10, time.Hour, 10*time.Minute))
	idSmall, _ := m.Submit(job("small", "carol", 2, 30*time.Minute, 20*time.Minute))
	small, _ := m.Job(idSmall)
	if small.State != StateQueued {
		t.Fatal("SGE must not backfill")
	}
	// Swap to Torque+Maui: the backfill candidate should now start.
	m.SetPolicy(TorqueMaui{})
	if m.PolicyName() != "torque" {
		t.Fatal("policy swap failed")
	}
	if small.State != StateRunning {
		t.Fatalf("after swap to maui, small should backfill: %v", small.State)
	}
	eng.Run()
}

func TestIdleNodesAndDrainNotify(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	idle := func() (n int) {
		for _, node := range m.Cluster.Computes {
			if !m.NodeBusy(node.Name) {
				n++
			}
		}
		return n
	}
	if got := idle(); got != 5 {
		t.Fatalf("idle nodes = %d, want 5", got)
	}
	var drained []string
	m.DrainNotify = func(node string) { drained = append(drained, node) }
	id, _ := m.Submit(job("j", "a", 4, time.Hour, 10*time.Minute))
	j, _ := m.Job(id)
	if idle() != 3 {
		t.Fatalf("idle = %d with alloc %v", idle(), j.Alloc)
	}
	for node := range j.Alloc {
		if !m.NodeBusy(node) {
			t.Errorf("%s should be busy", node)
		}
	}
	eng.Run()
	if len(drained) != 2 {
		t.Fatalf("drain notifications = %v, want 2 nodes", drained)
	}
}

func TestWakeRequestOnShortfall(t *testing.T) {
	c := cluster.NewLimulusHPC200()
	// Only one node powered on.
	c.Frontend.SetPower(cluster.PowerOn)
	c.Computes[0].SetPower(cluster.PowerOn)
	eng := sim.NewEngine()
	m := NewManager(eng, c, TorqueMaui{})
	var asked int
	m.WakeRequest = func(n int) { asked = n }
	id, _ := m.Submit(job("j", "a", 8, time.Hour, 10*time.Minute))
	j, _ := m.Job(id)
	if j.State != StateQueued {
		t.Fatalf("job should queue with one 4-core node on: %v", j.State)
	}
	if asked != 4 {
		t.Fatalf("wake shortfall = %d, want 4", asked)
	}
	// Power the rest on and resubmit a scheduling pass via SetPolicy.
	for _, n := range c.Computes[1:] {
		n.SetPower(cluster.PowerOn)
	}
	m.SetPolicy(TorqueMaui{})
	if j.State != StateRunning {
		t.Fatalf("job should start once nodes wake: %v", j.State)
	}
	eng.Run()
}

func TestAllocationPacksFullestFirst(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	// Occupy 1 core on one node.
	id1, _ := m.Submit(job("one", "a", 1, time.Hour, time.Hour))
	j1, _ := m.Job(id1)
	var partial string
	for n := range j1.Alloc {
		partial = n
	}
	// A 1-core job should pack onto the same node (fullest first).
	id2, _ := m.Submit(job("two", "a", 1, time.Hour, time.Hour))
	j2, _ := m.Job(id2)
	if _, ok := j2.Alloc[partial]; !ok {
		t.Fatalf("expected packing onto %s, got %v", partial, j2.Alloc)
	}
	eng.Run()
}

func TestJobStateStrings(t *testing.T) {
	for s, want := range map[JobState]string{
		StateQueued: "queued", StateRunning: "running", StateCompleted: "completed",
		StateCancelled: "cancelled", StateTimeout: "timeout",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	id, err := m.Submit(&Job{Name: "defaults", User: "a", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := m.Job(id)
	if j.Walltime != time.Hour || j.Runtime != 30*time.Minute {
		t.Fatalf("defaults: wall=%v run=%v", j.Walltime, j.Runtime)
	}
	eng.Run()
}

// TestFailedPlacementDoesNotAllocate: a busy cluster asks "does it fit?" on
// every scheduling pass, and the answer "no" must cost nothing — no sorted
// slot list, no allocation map built and thrown away.
func TestFailedPlacementDoesNotAllocate(t *testing.T) {
	_, m := littlefe(t, TorqueMaui{})
	if _, err := m.Submit(job("fill", "a", 9, time.Hour, time.Hour)); err != nil { // 9 of 10 cores
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if alloc := m.tryPlace(1); len(alloc) != 1 {
		t.Fatalf("tryPlace(1) = %v, want the one free core", alloc)
	}
	if n := testing.AllocsPerRun(100, func() {
		if alloc := m.tryPlace(2); alloc != nil {
			t.Fatalf("tryPlace(2) = %v with one core free", alloc)
		}
	}); n != 0 {
		t.Errorf("a placement that cannot fit allocates %v times, want 0", n)
	}
}
