package sched

import (
	"cmp"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

// sloppyFIFO orders by submission time only — no ID tie-break. Policies
// like this exist outside the repo (Policy is an interface), and they
// expose the queue's raw insertion order whenever ties stay stable-sorted.
type sloppyFIFO struct{}

func (sloppyFIFO) Name() string { return "sloppy" }
func (sloppyFIFO) Compare(a, b *Job, _ sim.Time, _ map[string]float64) int {
	return cmp.Compare(a.SubmitTime, b.SubmitTime)
}
func (sloppyFIFO) Backfill() bool { return false }

// TestNodeFailRequeueOrderDeterministic guards the fix for a latent
// map-iteration leak: NodeFail used to requeue a failed node's jobs in
// m.running's map order, so victims sharing a (reset) submission time
// landed in the queue in random order. Under any policy without a total
// tie-break that order is observable — and it must be the same every run.
func TestNodeFailRequeueOrderDeterministic(t *testing.T) {
	for run := 0; run < 10; run++ {
		eng := sim.NewEngine()
		hw := cluster.NewLittleFe() // 5 computes, 2 cores each
		hw.PowerOnAll()
		m := NewManager(eng, hw, sloppyFIFO{})

		// Fill one node with several 1-core jobs, keep the others busy so
		// nothing can migrate: jobs 1..n all run, some on compute-0-1.
		var ids []int
		for i := 0; i < 10; i++ {
			id, err := m.Submit(&Job{User: "u", Cores: 1,
				Walltime: time.Hour, Runtime: 30 * time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		victimNode := ""
		for _, j := range m.Running() {
			for _, s := range j.Alloc {
				victimNode = m.Cluster.Computes[s.Node].Name
			}
		}
		if victimNode == "" {
			t.Fatal("no running jobs to fail")
		}
		if err := m.NodeFail(victimNode); err != nil {
			t.Fatal(err)
		}
		queued := m.Queued()
		if len(queued) == 0 {
			t.Fatalf("run %d: node failure requeued nothing", run)
		}
		for i := 1; i < len(queued); i++ {
			if queued[i-1].ID > queued[i].ID {
				t.Fatalf("run %d: requeued jobs out of ID order: %d before %d",
					run, queued[i-1].ID, queued[i].ID)
			}
		}
	}
}
