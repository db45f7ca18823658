package sched

import (
	"fmt"
	"sort"

	"xcbc/internal/cluster"
)

// Node failure handling: the paper's adopters "performed a critical
// function in hardening the installation"; a batch system that loses jobs
// when a LittleFe node browns out is not production-quality. NodeFail
// models a node dropping: running jobs that touched it are requeued (the
// Torque "requeueable" behaviour) and the node leaves the schedulable pool
// until repaired.

// NodeFail marks a compute node failed: it is powered off, its running
// jobs are requeued (fresh submission time, so they do not jump the queue
// unfairly under FIFO), and a scheduling pass redistributes work.
func (m *Manager) NodeFail(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.Cluster.Lookup(name)
	if !ok {
		return fmt.Errorf("sched: no such node %s", name)
	}
	if n.Role == cluster.RoleFrontend {
		return fmt.Errorf("sched: frontend failure takes the whole cluster down; not schedulable")
	}
	// Identify victims before mutating state. m.running is a map; requeue
	// in ID order so the queue's insertion order — which a policy without a
	// full tie-break (and the stable queue sort) would expose — never
	// depends on map iteration. Seeded scenario traces rely on this.
	var victims []*Job
	for _, j := range m.running {
		if _, usesNode := j.Alloc[name]; usesNode {
			victims = append(victims, j)
		}
	}
	sort.Slice(victims, func(i, k int) bool { return victims[i].ID < victims[k].ID })
	for _, j := range victims {
		// Release all of the job's cores (including on healthy nodes).
		m.Engine.Cancel(j.finish) // no-op for fired, cancelled, or zero handles
		delete(m.running, j.ID)
		for node, c := range j.Alloc {
			m.free[node] += c
		}
		j.Alloc = nil
		j.State = StateQueued
		j.SubmitTime = m.Engine.Now()
		j.StartTime = 0
		j.requeued = true
		m.queue = append(m.queue, j)
	}
	n.SetPower(cluster.PowerOff)
	m.free[name] = 0
	m.schedule()
	return nil
}

// NodeRepair returns a failed node to service with its full core count and
// reruns placement.
func (m *Manager) NodeRepair(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.Cluster.Lookup(name)
	if !ok {
		return fmt.Errorf("sched: no such node %s", name)
	}
	n.SetPower(cluster.PowerOn)
	m.free[name] = n.Cores()
	m.schedule()
	return nil
}

// Drain puts a node into maintenance: running jobs finish normally but no
// new work is placed on it ("rocks set host boot action=install" before a
// reinstall, or pbsnodes -o). Undrain returns it to service.
func (m *Manager) Drain(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.Cluster.Lookup(name); !ok {
		return fmt.Errorf("sched: no such node %s", name)
	}
	if m.drained == nil {
		m.drained = make(map[string]bool)
	}
	m.drained[name] = true
	return nil
}

// Undrain returns a drained node to service and reruns placement.
func (m *Manager) Undrain(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.Cluster.Lookup(name); !ok {
		return fmt.Errorf("sched: no such node %s", name)
	}
	delete(m.drained, name)
	m.schedule()
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
