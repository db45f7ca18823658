package sched

import (
	"testing"
	"time"
)

func TestDrainExcludesNodeFromPlacement(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	if err := m.Drain("compute-0-1"); err != nil {
		t.Fatal(err)
	}
	// An 8-core job fits on the 4 remaining nodes, never on the drained one.
	id, _ := m.Submit(job("j", "u", 8, time.Hour, 10*time.Minute))
	j, _ := m.Job(id)
	if j.State != StateRunning {
		t.Fatalf("state = %v", j.State)
	}
	if _, used := j.Alloc["compute-0-1"]; used {
		t.Fatal("drained node received work")
	}
	// A 10-core job cannot fit with one node drained.
	id2, _ := m.Submit(job("big", "u", 10, time.Hour, 10*time.Minute))
	j2, _ := m.Job(id2)
	if j2.State != StateQueued {
		t.Fatalf("big job should queue: %v", j2.State)
	}
	// Undrain lets it through once the first job finishes.
	if err := m.Undrain("compute-0-1"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j2.State != StateCompleted {
		t.Fatalf("big job after undrain = %v", j2.State)
	}
}

func TestDrainRunningJobUnaffected(t *testing.T) {
	eng, m := littlefe(t, TorqueMaui{})
	id, _ := m.Submit(job("j", "u", 10, time.Hour, 10*time.Minute))
	j, _ := m.Job(id)
	var node string
	for n := range j.Alloc {
		node = n
		break
	}
	if err := m.Drain(node); err != nil {
		t.Fatal(err)
	}
	if j.State != StateRunning {
		t.Fatal("drain must not kill running work")
	}
	eng.Run()
	if j.State != StateCompleted {
		t.Fatalf("state = %v", j.State)
	}
}

func TestDrainErrors(t *testing.T) {
	_, m := littlefe(t, TorqueMaui{})
	if err := m.Drain("ghost"); err == nil {
		t.Fatal("unknown node drain should fail")
	}
	if err := m.Undrain("ghost"); err == nil {
		t.Fatal("unknown node undrain should fail")
	}
}
