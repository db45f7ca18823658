package sched

import (
	"fmt"
	"slices"
	"sort"

	"xcbc/internal/cluster"
)

// Node failure handling: the paper's adopters "performed a critical
// function in hardening the installation"; a batch system that loses jobs
// when a LittleFe node browns out is not production-quality. NodeFail
// models a node dropping: running jobs that touched it are requeued (the
// Torque "requeueable" behaviour) and the node leaves the schedulable pool
// until repaired.

// compute resolves a compute node named at the edge. m.mu held.
func (m *Manager) compute(name string) (int, error) {
	if i := m.Cluster.ComputeIndex(name); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("sched: no such compute node %s", name)
}

// NodeFail marks a compute node failed until NodeRepair: it is powered off,
// its running jobs are requeued (fresh submission time, so they do not jump
// the queue unfairly under FIFO), and a scheduling pass redistributes work.
func (m *Manager) NodeFail(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Cluster.Frontend != nil && name == m.Cluster.Frontend.Name {
		return fmt.Errorf("sched: frontend failure takes the whole cluster down; not schedulable")
	}
	i, err := m.compute(name)
	if err != nil {
		return err
	}
	// Identify victims before mutating state. m.running is a map; requeue
	// in ID order so the queue's insertion order — which a policy without a
	// full tie-break (and the stable queue sort) would expose — never
	// depends on map iteration. Seeded scenario traces rely on this.
	var victims []*Job
	for _, j := range m.running {
		if slices.ContainsFunc(j.Alloc, func(s Share) bool { return s.Node == i }) {
			victims = append(victims, j)
		}
	}
	sort.Slice(victims, func(a, b int) bool { return victims[a].ID < victims[b].ID })
	for _, j := range victims {
		m.release(j) // all of its cores, on healthy nodes too
		j.Alloc = nil
		j.State = StateQueued
		j.SubmitTime = m.Engine.Now()
		j.StartTime = 0
		j.requeued = true
		m.queue = append(m.queue, j)
	}
	m.Cluster.Computes[i].SetPower(cluster.PowerOff)
	m.failed[i] = true
	m.schedule()
	return nil
}

// NodeRepair returns a node to service — a failed node repaired, or a
// sleeping one booted — and reruns placement; jobs on it keep their cores.
func (m *Manager) NodeRepair(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, err := m.compute(name)
	if err != nil {
		return err
	}
	m.Cluster.Computes[i].SetPower(cluster.PowerOn)
	m.failed[i] = false
	m.schedule()
	return nil
}

// Drain puts a node into maintenance: running jobs finish normally but no
// new work is placed on it ("rocks set host boot action=install" before a
// reinstall, or pbsnodes -o). Undrain returns it to service.
func (m *Manager) Drain(name string) error { return m.setDrained(name, true) }

// Undrain returns a drained node to service and reruns placement.
func (m *Manager) Undrain(name string) error { return m.setDrained(name, false) }

func (m *Manager) setDrained(name string, drained bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, err := m.compute(name)
	if err != nil {
		return err
	}
	if m.drained[i] = drained; !drained {
		m.schedule()
	}
	return nil
}

// RequeuedCount returns how many currently queued jobs have been requeued
// by a node failure; used by hardening tests and reports.
func (m *Manager) RequeuedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	count := 0
	for _, j := range m.queue {
		if j.requeued {
			count++
		}
	}
	return count
}
