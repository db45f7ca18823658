// Package power implements the Limulus HPC200's headline management feature:
// "power management that turns nodes on and off as needed for maximum power
// efficiency. This can also be scheduled." A Manager watches the batch
// system, powers compute nodes down after an idle grace period, wakes them
// when queued work cannot be placed, and accounts energy so policies can be
// compared quantitatively.
package power

import (
	"fmt"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sched"
	"xcbc/internal/sim"
)

// Policy selects how aggressively nodes are powered down.
type Policy int

// Power policies.
const (
	// AlwaysOn never powers nodes down (the LittleFe default — no power
	// management hardware).
	AlwaysOn Policy = iota
	// OnDemand powers idle nodes down after IdleGrace and wakes them when
	// the queue needs cores (the Limulus behaviour).
	OnDemand
)

func (p Policy) String() string {
	switch p {
	case AlwaysOn:
		return "always-on"
	case OnDemand:
		return "on-demand"
	}
	return "?"
}

// Manager drives node power according to a policy, integrating with the
// batch system's wake/drain hooks. It knows a compute node by its position
// in Cluster.Computes.
type Manager struct {
	Engine    *sim.Engine
	Cluster   *cluster.Cluster
	Batch     *sched.Manager
	Policy    Policy
	IdleGrace time.Duration // how long a node must stay idle before power-off
	BootDelay time.Duration // how long a node takes to come up

	// Per compute node, made only for a policy that powers nodes down.
	pending []sim.Handle // scheduled power-off; zero when none
	booting []bool       // woken, and the boot has not fired yet

	lastSample sim.Time
	events     []string
}

// NewManager wires a power manager to a cluster and its batch system.
// Passing a nil batch is allowed for clusters without a scheduler.
func NewManager(eng *sim.Engine, c *cluster.Cluster, batch *sched.Manager, policy Policy) *Manager {
	m := &Manager{
		Engine:    eng,
		Cluster:   c,
		Batch:     batch,
		Policy:    policy,
		IdleGrace: 5 * time.Minute,
		BootDelay: 90 * time.Second,
	}
	if batch != nil && policy != AlwaysOn {
		m.pending, m.booting = make([]sim.Handle, len(c.Computes)), make([]bool, len(c.Computes))
		batch.DrainNotify = m.nodeIdle
		batch.WakeRequest = m.wake
		// Nodes idle from the start (never allocated) also deserve grace
		// timers; arm them once the simulation begins so callers can still
		// adjust IdleGrace after construction.
		eng.After(0, "power-arm-idle", func(*sim.Engine) { m.armAllIdle() })
	}
	return m
}

// armAllIdle starts grace timers for every powered-on, unoccupied compute
// node that does not already have one pending.
func (m *Manager) armAllIdle() {
	for i, n := range m.Cluster.Computes {
		if n.Power() == cluster.PowerOn && !m.Batch.NodeBusy(i) && m.pending[i] == (sim.Handle{}) {
			m.nodeIdle(i)
		}
	}
}

// nodeIdle is the batch system's drain notification for compute i:
// schedule a power-off after the grace period if the node is still idle
// then.
func (m *Manager) nodeIdle(i int) {
	m.Engine.Cancel(m.pending[i])
	n := m.Cluster.Computes[i]
	m.pending[i] = m.Engine.After(m.IdleGrace, "power-off-"+n.Name, func(*sim.Engine) {
		m.pending[i] = sim.Handle{}
		if m.Batch.NodeBusy(i) {
			return // picked up work during the grace period
		}
		m.accrue()
		n.SetPower(cluster.PowerOff)
		m.logf("powered off idle node %s at %v", n.Name, m.Engine.Now())
	})
}

// wake is the batch system's shortfall notification: power on enough
// sleeping nodes to cover the requested cores, with a boot delay before
// they become schedulable. A node still booting reads PowerOff until its
// boot fires; it is not woken again, and its cores count toward the
// shortfall. A failed node is never woken; one that fails while booting
// stays off and stops counting, so another is woken in its place.
func (m *Manager) wake(coresNeeded int, failed []bool) {
	woken := 0
	for i, n := range m.Cluster.Computes {
		if m.booting[i] && !failed[i] {
			woken += n.Cores()
		}
	}
	for i, n := range m.Cluster.Computes {
		if woken >= coresNeeded {
			break
		}
		if n.Power() != cluster.PowerOff || m.booting[i] || failed[i] {
			continue // on, already booting, or failed
		}
		m.Engine.Cancel(m.pending[i])
		m.pending[i] = sim.Handle{}
		woken += n.Cores()
		m.accrue()
		m.logf("waking node %s at %v", n.Name, m.Engine.Now())
		m.booting[i] = true
		m.Engine.After(m.BootDelay, "boot-"+n.Name, func(*sim.Engine) {
			m.booting[i] = false
			if m.Batch.NodeBusy(i) {
				return // failed while booting
			}
			// Power it on and rerun placement; n is a compute, so this
			// cannot fail.
			m.Batch.NodeRepair(n.Name)
		})
	}
}

// accrue charges energy for the interval since the last sample at current
// draw, to every node. Call before any power-state change and at the end of
// a simulation to finalize accounting.
func (m *Manager) accrue() {
	now := m.Engine.Now()
	dt := (now - m.lastSample).Duration().Hours()
	if dt <= 0 {
		return
	}
	for n := range m.Cluster.All() {
		n.AddEnergy(n.DrawWatts() * dt)
	}
	m.lastSample = now
}

// Finalize charges energy up to the current simulation time and returns the
// cluster's total in watt-hours.
func (m *Manager) Finalize() float64 {
	m.accrue()
	return m.Cluster.EnergyWh()
}

// Events returns the power manager's log.
func (m *Manager) Events() []string { return append([]string(nil), m.events...) }

func (m *Manager) logf(format string, args ...any) {
	m.events = append(m.events, fmt.Sprintf(format, args...))
}
