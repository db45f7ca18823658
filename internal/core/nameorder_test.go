package core

import (
	"slices"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
)

// TestNodeTiesBreakInNameOrder: inside the simulator a node is its index
// in Cluster.Computes, but on a cluster of 12 computes index order is not
// name order (compute-0-10 sorts before compute-0-2), and every order a
// user can see still follows names: which of two equally free nodes a job
// lands on, the order finished jobs report nodes drained in, and the node
// list of a job view.
func TestNodeTiesBreakInNameOrder(t *testing.T) {
	c := cluster.NewLittleFe()
	if err := cluster.ResizeComputes(c, 12); err != nil {
		t.Fatal(err)
	}
	d, err := BuildXCBCContext(t.Context(), sim.NewEngine(), c, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	var drained []string
	d.Batch.DrainNotify = func(node int) { drained = append(drained, c.Computes[node].Name) }
	ops := d.Operations()

	// Every node has 2 free cores: a 3-core job takes the first node in
	// name order whole and one core of the second.
	small, err := ops.SubmitJob(&sched.Job{Name: "small", User: "u", Cores: 3, Walltime: time.Hour, Runtime: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"compute-0-1", "compute-0-10"}; !slices.Equal(small.Nodes, want) {
		t.Errorf("3-core job placed on %v, want %v", small.Nodes, want)
	}
	ops.Advance(2 * time.Minute)
	if want := []string{"compute-0-1", "compute-0-10"}; !slices.Equal(drained, want) {
		t.Errorf("drained %v, want %v", drained, want)
	}

	drained = nil
	all, err := ops.SubmitJob(&sched.Job{Name: "all", User: "u", Cores: 24, Walltime: time.Hour, Runtime: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(c.Computes))
	for _, n := range c.Computes {
		names = append(names, n.Name)
	}
	slices.Sort(names)
	if names[1] != "compute-0-10" || !slices.Equal(all.Nodes, names) {
		t.Errorf("whole-machine job lists %v, want %v", all.Nodes, names)
	}
	ops.Advance(2 * time.Minute)
	if !slices.Equal(drained, names) {
		t.Errorf("drained %v, want %v", drained, names)
	}
}
