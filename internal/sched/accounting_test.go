package sched

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

func TestAccountingRecords(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	m.Submit(job("a", "alice", 4, time.Hour, 30*time.Minute))
	m.Submit(job("b", "bob", 2, time.Hour, 15*time.Minute))
	eng.Run()
	recs := m.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	// Completion order: b (15m) before a (30m).
	if recs[0].Name != "b" || recs[1].Name != "a" {
		t.Fatalf("order: %s, %s", recs[0].Name, recs[1].Name)
	}
	if recs[1].CoreSecs != 30*60*4 {
		t.Fatalf("a core-secs = %v", recs[1].CoreSecs)
	}
	if recs[0].State != StateCompleted {
		t.Fatalf("state = %v", recs[0].State)
	}
}

func TestUserSummaries(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	m.Submit(job("a1", "alice", 4, time.Hour, 30*time.Minute))
	m.Submit(job("a2", "alice", 2, time.Hour, 30*time.Minute))
	m.Submit(job("b1", "bob", 2, time.Hour, 10*time.Minute))
	idC, _ := m.Submit(job("c-cancelled", "carol", 2, time.Hour, 50*time.Minute))
	m.Cancel(idC)
	eng.Run()
	sums := m.UserSummaries()
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if sums[0].User != "alice" {
		t.Fatalf("top user = %s", sums[0].User)
	}
	if sums[0].CoreSecs != 30*60*4+30*60*2 {
		t.Fatalf("alice core-secs = %v", sums[0].CoreSecs)
	}
	for _, s := range sums {
		if s.User == "carol" {
			if s.Jobs != 1 || s.CoreSecs != 0 {
				t.Fatalf("carol summary = %+v", s)
			}
		}
	}
}

func TestUtilization(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	if m.Utilization() != 0 {
		t.Fatal("utilization at t=0 should be 0")
	}
	// Full machine (10 compute cores) for the entire elapsed window.
	m.Submit(job("full", "u", 10, time.Hour, time.Hour))
	eng.RunUntil(sim.Time(30 * time.Minute))
	u := m.Utilization()
	if u < 0.99 || u > 1.01 {
		t.Fatalf("utilization mid-run = %v, want ~1.0", u)
	}
	eng.Run()
	// One hour busy out of one hour elapsed.
	u = m.Utilization()
	if u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v", u)
	}
	// Let the clock idle on: utilization decays.
	eng.RunUntil(sim.Time(2 * time.Hour))
	if got := m.Utilization(); got > 0.51 || got < 0.49 {
		t.Fatalf("utilization after idle hour = %v, want ~0.5", got)
	}
}

func TestAccountingReport(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	m.Submit(job("a", "alice", 4, time.Hour, 30*time.Minute))
	eng.Run()
	rep := m.AccountingReport()
	for _, want := range []string{"utilization", "alice", "per-user summary", "CORE-SECS"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestNodeFailRequeuesJobs(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	id, _ := m.Submit(job("spread", "u", 10, time.Hour, 30*time.Minute))
	j, _ := m.Job(id)
	victim := m.Cluster.Computes[j.Alloc[0].Node].Name
	if err := m.NodeFail(victim); err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || !j.Requeued() {
		t.Fatalf("job should be requeued: state=%v requeued=%v", j.State, j.Requeued())
	}
	if m.RequeuedCount() != 1 {
		t.Fatalf("RequeuedCount = %d", m.RequeuedCount())
	}
	// With one node down (8 cores), the 10-core job cannot run.
	if m.totalFree() != 8 {
		t.Fatalf("free cores = %d", m.totalFree())
	}
	// Repair brings it back and the job reruns to completion.
	if err := m.NodeRepair(victim); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j.State != StateCompleted {
		t.Fatalf("state after repair = %v", j.State)
	}
	// No core leaks.
	if m.totalFree() != 10 {
		t.Fatalf("free cores = %d", m.totalFree())
	}
}

// TestRepairOfBusyNodeKeepsItsJobsCores repairs a node that never failed
// while a job holds its cores: the cores stay taken, so the next pass
// places no second job there and the 10-core LittleFe runs five 2-core
// jobs, not six.
func TestRepairOfBusyNodeKeepsItsJobsCores(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	id, _ := m.Submit(job("first", "u", 2, time.Hour, 30*time.Minute))
	if j, _ := m.Job(id); j.State != StateRunning || !uses(j, 0) || m.Cluster.Computes[0].Name != "compute-0-1" {
		t.Fatalf("first job should run on compute-0-1: %v, alloc %v", j.State, j.Alloc)
	}
	if err := m.NodeRepair("compute-0-1"); err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if _, err := m.Submit(job(fmt.Sprintf("j%d", i), "u", 2, time.Hour, 10*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if queued, running, _ := m.JobCounts(); queued != 1 || running != 5 {
		t.Fatalf("%d running and %d queued, want 5 and 1: four of the five start", running, queued)
	}
	eng.Run()
	for i, n := range m.Cluster.Computes {
		if m.free[i] != n.Cores() {
			t.Errorf("%s: %d free cores after the drain, want %d", n.Name, m.free[i], n.Cores())
		}
	}
}

func TestNodeFailDoesNotTouchOtherJobs(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	idA, _ := m.Submit(job("a", "u", 2, time.Hour, 30*time.Minute))
	idB, _ := m.Submit(job("b", "u", 2, time.Hour, 30*time.Minute))
	a, _ := m.Job(idA)
	bJob, _ := m.Job(idB)
	// Find a node used only by b.
	bNode := -1
	for _, s := range bJob.Alloc {
		if !uses(a, s.Node) {
			bNode = s.Node
			break
		}
	}
	if bNode < 0 {
		t.Skip("packing put both jobs on the same nodes")
	}
	if err := m.NodeFail(m.Cluster.Computes[bNode].Name); err != nil {
		t.Fatal(err)
	}
	if a.State != StateRunning {
		t.Fatalf("a should keep running, got %v", a.State)
	}
	if a.Requeued() {
		t.Fatal("a must not be marked requeued")
	}
	// b bounced through the queue; with spare capacity on surviving nodes it
	// may already be running again — but it must carry the requeued mark and
	// must not be allocated on the failed node.
	if !bJob.Requeued() {
		t.Fatalf("b should be marked requeued, state %v", bJob.State)
	}
	if uses(bJob, bNode) {
		t.Fatal("b reallocated onto the failed node")
	}
	eng.Run()
	if bJob.State != StateCompleted {
		t.Fatalf("b should complete after re-placement, got %v", bJob.State)
	}
}

func TestNodeFailErrors(t *testing.T) {
	_, m := littlefe(t, TorqueMaui{})
	if err := m.NodeFail("ghost"); err == nil {
		t.Fatal("unknown node should fail")
	}
	if err := m.NodeFail("littlefe-head"); err == nil || !strings.Contains(err.Error(), "frontend failure") {
		t.Fatalf("NodeFail(frontend) = %v, want the frontend refusal", err)
	}
	if err := m.NodeRepair("ghost"); err == nil {
		t.Fatal("unknown node repair should fail")
	}
}

func TestNodeFailWithPowerManagerIntegration(t *testing.T) {
	// A failed node must not be woken by the power manager's wake path
	// until repaired — here we just verify the sched-side invariant that a
	// failed node has zero schedulable cores even though a wake request was
	// issued.
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	eng := sim.NewEngine()
	m := NewManager(eng, c, TorqueMaui{})
	var wakes int
	m.WakeRequest = func(int, []bool) { wakes++ }
	m.Submit(job("big", "u", 10, time.Hour, 30*time.Minute))
	m.NodeFail("compute-0-1")
	if m.FreeCores(0) != 0 {
		t.Fatal("failed node should have no schedulable cores")
	}
	if wakes == 0 {
		t.Fatal("shortfall should have triggered a wake request")
	}
	m.NodeRepair("compute-0-1")
	eng.Run()
}
