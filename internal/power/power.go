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
	// Scheduled is the SDK's "scheduled" policy. It behaves as OnDemand:
	// nothing configures off-hours windows.
	Scheduled
)

func (p Policy) String() string {
	switch p {
	case AlwaysOn:
		return "always-on"
	case OnDemand:
		return "on-demand"
	case Scheduled:
		return "scheduled"
	}
	return "?"
}

// Manager drives node power according to a policy, integrating with the
// batch system's wake/drain hooks.
type Manager struct {
	Engine    *sim.Engine
	Cluster   *cluster.Cluster
	Batch     *sched.Manager
	Policy    Policy
	IdleGrace time.Duration // how long a node must stay idle before power-off
	BootDelay time.Duration // how long a node takes to come up

	pending    map[string]sim.Handle // node -> scheduled power-off
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
		pending:   make(map[string]sim.Handle),
	}
	if batch != nil && policy != AlwaysOn {
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
	for _, n := range m.Cluster.Computes {
		if n.Power() != cluster.PowerOn {
			continue
		}
		if m.Batch != nil && m.Batch.NodeBusy(n.Name) {
			continue
		}
		if _, armed := m.pending[n.Name]; armed {
			continue
		}
		m.nodeIdle(n.Name)
	}
}

// nodeIdle is the batch system's drain notification: schedule a power-off
// after the grace period if the node is still idle then.
func (m *Manager) nodeIdle(node string) {
	if m.Policy == AlwaysOn {
		return
	}
	if ev, ok := m.pending[node]; ok {
		m.Engine.Cancel(ev)
	}
	m.pending[node] = m.Engine.After(m.IdleGrace, "power-off-"+node, func(*sim.Engine) {
		delete(m.pending, node)
		n, ok := m.Cluster.Lookup(node)
		if !ok || n.Role == cluster.RoleFrontend {
			return
		}
		if m.Batch != nil && m.Batch.NodeBusy(node) {
			return // picked up work during the grace period
		}
		m.accrue()
		n.SetPower(cluster.PowerOff)
		m.logf("powered off idle node %s at %v", node, m.Engine.Now())
	})
}

// wake is the batch system's shortfall notification: power on enough
// sleeping nodes to cover the requested cores, with a boot delay before
// they become schedulable.
func (m *Manager) wake(coresNeeded int) {
	if m.Policy == AlwaysOn {
		return
	}
	woken := 0
	for _, n := range m.Cluster.Computes {
		if woken >= coresNeeded {
			break
		}
		if n.Power() == cluster.PowerOff {
			node := n
			if ev, ok := m.pending[node.Name]; ok {
				m.Engine.Cancel(ev)
				delete(m.pending, node.Name)
			}
			woken += node.Cores()
			m.accrue()
			m.logf("waking node %s at %v", node.Name, m.Engine.Now())
			m.Engine.After(m.BootDelay, "boot-"+node.Name, func(*sim.Engine) {
				node.SetPower(cluster.PowerOn)
				if m.Batch != nil {
					// Rerun placement now that capacity exists.
					m.Batch.SetPolicy(policyOf(m.Batch))
				}
			})
		}
	}
}

// policyOf round-trips the batch manager's current policy (SetPolicy
// triggers a scheduling pass).
func policyOf(b *sched.Manager) sched.Policy {
	p, _ := sched.PolicyByName(b.PolicyName())
	return p
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
	for _, n := range m.Cluster.Nodes() {
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
