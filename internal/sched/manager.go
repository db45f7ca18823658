package sched

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

// Sentinel errors; test with errors.Is.
var (
	// ErrUnknownJob reports a job ID that is neither queued nor running.
	ErrUnknownJob = errors.New("sched: unknown job")
	// ErrBadJob reports a submission that can never run (no cores requested,
	// or more cores than the cluster has).
	ErrBadJob = errors.New("sched: bad job request")
)

// Manager is the batch system: a queue, a set of running jobs, and an
// allocation map over a cluster's compute nodes, driven by a discrete-event
// engine and parameterized by a Policy.
//
// Manager methods are safe for concurrent use with each other: a mutex
// guards the queue, running set, history, and allocation maps, and the
// accessors return defensively copied slices. The *Job elements inside
// them stay live — the manager keeps mutating a job's State/EndTime/Alloc
// as it progresses — so reading job fields is only safe on the goroutine
// driving the engine; cross-goroutine readers want the snapshotting
// core.Operations adapter (JobView), which is what the HTTP control plane
// uses. Advancing the shared sim.Engine concurrently with Manager calls
// likewise needs that external serialization (the engine itself is
// unsynchronized).
type Manager struct {
	Engine  *sim.Engine
	Cluster *cluster.Cluster

	mu     sync.Mutex
	policy Policy

	nextID  int
	queue   []*Job
	running map[int]*Job
	done    []*Job
	free    map[string]int     // node name -> free cores
	usage   map[string]float64 // user -> core-seconds consumed (fair share)
	drained map[string]bool    // nodes in maintenance: no new placements
	slots   []slot             // tryPlace's scratch, reused across passes

	// WakeRequest, if set, is called when queued jobs cannot be placed
	// because too few powered-on cores exist; the power manager uses it to
	// wake sleeping nodes. It receives the total core shortfall.
	WakeRequest func(coresNeeded int)

	// DrainNotify, if set, is called whenever a node goes fully idle; the
	// power manager uses it to consider powering the node down.
	DrainNotify func(node string)
}

// NewManager builds a batch system over the cluster's compute nodes.
func NewManager(eng *sim.Engine, c *cluster.Cluster, p Policy) *Manager {
	m := &Manager{
		Engine:  eng,
		Cluster: c,
		policy:  p,
		nextID:  1,
		running: make(map[int]*Job),
		free:    make(map[string]int),
		usage:   make(map[string]float64),
		slots:   make([]slot, 0, len(c.Computes)),
	}
	for _, n := range c.Computes {
		m.free[n.Name] = n.Cores()
	}
	return m
}

// PolicyName returns the active scheduler personality.
func (m *Manager) PolicyName() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.policy.Name()
}

// SetPolicy swaps the scheduler personality (the paper's "change the
// schedulers" workflow on the Limulus). Queued jobs are re-evaluated under
// the new policy; running jobs are unaffected.
func (m *Manager) SetPolicy(p Policy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.policy = p
	m.schedule()
}

// Submit enqueues a job and runs a scheduling pass. The job's Runtime is how
// long it will actually execute; Walltime is the requested limit. The job
// struct becomes manager-owned on success: read it back via Job or the
// accessors rather than retaining the pointer across engine advances.
func (m *Manager) Submit(j *Job) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.Cores <= 0 {
		return 0, fmt.Errorf("%w: job must request at least 1 core", ErrBadJob)
	}
	capacity := 0
	for _, n := range m.Cluster.Computes {
		capacity += n.Cores()
	}
	if j.Cores > capacity {
		return 0, fmt.Errorf("%w: job requests %d cores, cluster has %d", ErrBadJob, j.Cores, capacity)
	}
	if j.Walltime <= 0 {
		j.Walltime = time.Hour
	}
	if j.Runtime <= 0 {
		j.Runtime = j.Walltime / 2
	}
	j.ID = m.nextID
	m.nextID++
	j.State = StateQueued
	j.SubmitTime = m.Engine.Now()
	m.queue = append(m.queue, j)
	m.schedule()
	return j.ID, nil
}

// Cancel removes a queued job or kills a running one.
func (m *Manager) Cancel(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, j := range m.queue {
		if j.ID == id {
			m.queue = append(m.queue[:i:i], m.queue[i+1:]...)
			j.State = StateCancelled
			j.EndTime = m.Engine.Now()
			m.done = append(m.done, j)
			return nil
		}
	}
	if j, ok := m.running[id]; ok {
		m.finish(j, StateCancelled)
		m.schedule()
		return nil
	}
	return fmt.Errorf("%w: no active job %d", ErrUnknownJob, id)
}

// Job finds a job by ID across queue, running set, and history.
func (m *Manager) Job(id int) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.queue {
		if j.ID == id {
			return j, true
		}
	}
	if j, ok := m.running[id]; ok {
		return j, true
	}
	for _, j := range m.done {
		if j.ID == id {
			return j, true
		}
	}
	return nil, false
}

// Queued returns a defensively copied slice of the queued jobs in current
// policy order (the *Job elements are live; see the Manager doc).
func (m *Manager) Queued() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]*Job(nil), m.queue...)
	m.sortQueue(out)
	return out
}

// Running returns a defensively copied slice of the running jobs ordered
// by ID (the *Job elements are live; see the Manager doc).
func (m *Manager) Running() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.running))
	for _, j := range m.running {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// History returns a defensively copied slice of the finished jobs in
// completion order (the *Job elements are live; see the Manager doc).
func (m *Manager) History() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Job(nil), m.done...)
}

// JobCounts returns how many jobs the manager knows in each state —
// len(Queued), len(Running), len(History) without the copies.
func (m *Manager) JobCounts() (queued, running, done int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue), len(m.running), len(m.done)
}

// Usage returns consumed core-seconds by user (fair-share accounting).
//
//detlint:reached support: internal/core's TestWeekLongSoak reconciles it with the accounting records, and TestSGEFairShare reads what the SGE policy orders by
func (m *Manager) Usage() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.usage))
	for k, v := range m.usage {
		out[k] = v
	}
	return out
}

// FreeCores returns currently free cores on a powered-on node.
func (m *Manager) FreeCores(node string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.Cluster.Lookup(node)
	if !ok || n.Power() == cluster.PowerOff {
		return 0
	}
	return m.free[node]
}

// NodeBusy reports whether any job occupies the node.
func (m *Manager) NodeBusy(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodeBusy(node)
}

// nodeBusy is NodeBusy with m.mu held.
func (m *Manager) nodeBusy(node string) bool {
	n, ok := m.Cluster.Lookup(node)
	if !ok {
		return false
	}
	return m.free[node] < n.Cores()
}

// sortQueue orders jobs by the active policy. m.mu held.
func (m *Manager) sortQueue(q []*Job) {
	now := m.Engine.Now()
	slices.SortStableFunc(q, func(a, b *Job) int {
		switch {
		case m.policy.Less(a, b, now, m.usage):
			return -1
		case m.policy.Less(b, a, now, m.usage):
			return 1
		}
		return 0
	})
}

// schedule runs one scheduling pass: start jobs in policy order; if backfill
// is enabled, lower-priority jobs that fit without delaying the blocked head
// job may start too. m.mu held; WakeRequest is invoked under it, so the
// hook must not call back into the Manager synchronously (the power manager
// defers its reaction through the engine).
func (m *Manager) schedule() {
	m.sortQueue(m.queue)
	var blockedHead *Job
	shortfall := 0
	i := 0
	for i < len(m.queue) {
		j := m.queue[i]
		alloc := m.tryPlace(j.Cores)
		if alloc == nil {
			if blockedHead == nil {
				blockedHead = j
				shortfall = j.Cores - m.totalFree()
			}
			if !m.policy.Backfill() {
				break
			}
			i++
			continue
		}
		if blockedHead != nil {
			// Backfill candidate: only start if it finishes before the
			// blocked head could plausibly start (shadow time = earliest
			// completion among running jobs that frees enough cores).
			if !m.fitsInShadow(j) {
				i++
				continue
			}
		}
		m.queue = append(m.queue[:i:i], m.queue[i+1:]...)
		m.start(j, alloc)
	}
	if blockedHead != nil && m.WakeRequest != nil && shortfall > 0 {
		m.WakeRequest(shortfall)
	}
}

// totalFree sums free cores over powered-on nodes. m.mu held.
func (m *Manager) totalFree() int {
	total := 0
	for _, n := range m.Cluster.Computes {
		if n.Power() == cluster.PowerOn {
			total += m.free[n.Name]
		}
	}
	return total
}

// slot is one node a job could be placed on.
type slot struct {
	name string
	free int
}

// tryPlace finds an allocation for the requested cores over powered-on
// nodes (packing onto the fullest nodes first to reduce fragmentation), or
// nil if it does not fit — decided before anything is sorted or allocated,
// because a busy cluster asks on every pass. m.mu held.
func (m *Manager) tryPlace(cores int) map[string]int {
	slots, placeable := m.slots[:0], 0
	for _, n := range m.Cluster.Computes {
		if free := m.free[n.Name]; free > 0 && n.Power() == cluster.PowerOn && !m.drained[n.Name] {
			slots = append(slots, slot{n.Name, free})
			placeable += free
		}
	}
	m.slots = slots
	if placeable < cores {
		return nil
	}
	slices.SortFunc(slots, func(a, b slot) int {
		// Fullest (least free) first, then by name.
		return cmp.Or(cmp.Compare(a.free, b.free), strings.Compare(a.name, b.name))
	})
	alloc := make(map[string]int)
	for _, s := range slots {
		if cores == 0 {
			break
		}
		take := min(s.free, cores)
		alloc[s.name] = take
		cores -= take
	}
	return alloc
}

// fitsInShadow reports whether a backfill candidate's walltime fits before
// the earliest time enough resources free up for the blocked head job. The
// approximation used by real backfill schedulers (EASY backfill) is the
// earliest completion time among running jobs; we use the latest completion
// (conservative) to guarantee the head is never delayed.
func (m *Manager) fitsInShadow(j *Job) bool {
	if len(m.running) == 0 {
		return true
	}
	var shadow sim.Time
	for _, r := range m.running { //detlint:ordered max over values; equal candidates are interchangeable
		end := r.StartTime + sim.Time(r.Walltime)
		if end > shadow {
			shadow = end
		}
	}
	return m.Engine.Now()+sim.Time(j.Walltime) <= shadow
}

// start allocates and begins a job, scheduling its completion event.
// m.mu held; the completion callback fires later from an engine advance,
// outside any Manager call, so it re-acquires the lock itself.
func (m *Manager) start(j *Job, alloc map[string]int) {
	for node, c := range alloc {
		m.free[node] -= c
	}
	j.Alloc = alloc
	j.State = StateRunning
	j.StartTime = m.Engine.Now()
	m.running[j.ID] = j
	dur := j.Runtime
	final := StateCompleted
	if j.Runtime > j.Walltime {
		dur = j.Walltime // killed at the limit
		final = StateTimeout
	}
	j.finish = m.Engine.After(dur, "job-finish", func(*sim.Engine) {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.finish(j, final)
		m.schedule()
	})
}

// finish releases a job's resources and records accounting. m.mu held;
// DrainNotify is invoked under it (see schedule's WakeRequest note).
func (m *Manager) finish(j *Job, state JobState) {
	if j.terminal() {
		return
	}
	m.Engine.Cancel(j.finish) // no-op for fired, cancelled, or zero handles
	delete(m.running, j.ID)
	j.State = state
	j.EndTime = m.Engine.Now()
	elapsed := (j.EndTime - j.StartTime).Duration().Seconds()
	m.usage[j.User] += elapsed * float64(j.Cores)
	for node, c := range j.Alloc {
		m.free[node] += c
	}
	if m.DrainNotify != nil {
		for _, node := range slices.Sorted(maps.Keys(j.Alloc)) {
			if !m.nodeBusy(node) {
				m.DrainNotify(node)
			}
		}
	}
	m.done = append(m.done, j)
}
