package sched

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
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
	// more cores than the cluster has, a negative walltime or runtime, or a
	// walltime over maxWalltime).
	ErrBadJob = errors.New("sched: bad job request")
)

// maxWalltime bounds a job's walltime, and so how long it runs, to a year:
// its end must stay on the virtual clock, which ends 292 years in.
const maxWalltime = 365 * 24 * time.Hour

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
	usage   map[string]float64 // user -> core-seconds consumed (fair share)

	capacity int // the compute nodes' cores, summed

	// Per compute node, by position in Cluster.Computes.
	free    []int  // free cores: written only by start and release
	failed  []bool // failed and not yet repaired: never placed on
	drained []bool // in maintenance: no new placements
	slots   []slot // tryPlace's scratch, reused across passes

	// WakeRequest, if set, is called when queued jobs cannot be placed
	// because too few powered-on cores exist; the power manager uses it to
	// wake sleeping nodes. It receives the core shortfall and which
	// computes have failed, by index, read-only during the call.
	WakeRequest func(coresNeeded int, failed []bool)

	// DrainNotify, if set, is called with a compute node's index whenever
	// the node goes fully idle; the power manager uses it to consider
	// powering the node down.
	DrainNotify func(node int)
}

// NewManager builds a batch system over the cluster's compute nodes.
func NewManager(eng *sim.Engine, c *cluster.Cluster, p Policy) *Manager {
	m := &Manager{
		Engine:  eng,
		Cluster: c,
		policy:  p,
		nextID:  1,
		running: make(map[int]*Job),
		usage:   make(map[string]float64),
		free:    make([]int, len(c.Computes)),
		failed:  make([]bool, len(c.Computes)),
		drained: make([]bool, len(c.Computes)),
	}
	for i, n := range c.Computes {
		m.free[i] = n.Cores()
		m.capacity += n.Cores()
	}
	return m
}

// byName orders compute nodes i and j by name — the order every tie
// between nodes breaks in, which is not index order: compute-0-10 sorts
// before compute-0-2.
func (m *Manager) byName(i, j int) int {
	return strings.Compare(m.Cluster.Computes[i].Name, m.Cluster.Computes[j].Name)
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
// long it will actually execute; Walltime is the requested limit. A zero
// Walltime defaults to an hour and a zero Runtime to half the walltime; a
// negative one is refused with ErrBadJob. The job
// struct becomes manager-owned on success: read it back via Job or the
// accessors rather than retaining the pointer across engine advances.
func (m *Manager) Submit(j *Job) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.Cores <= 0 {
		return 0, fmt.Errorf("%w: job must request at least 1 core", ErrBadJob)
	}
	if j.Cores > m.capacity {
		return 0, fmt.Errorf("%w: job requests %d cores, cluster has %d", ErrBadJob, j.Cores, m.capacity)
	}
	if j.Walltime < 0 || j.Runtime < 0 {
		return 0, fmt.Errorf("%w: negative walltime %v or runtime %v", ErrBadJob, j.Walltime, j.Runtime)
	}
	if j.Walltime == 0 {
		j.Walltime = time.Hour
	}
	if j.Walltime > maxWalltime {
		return 0, fmt.Errorf("%w: walltime %v exceeds the %v limit", ErrBadJob, j.Walltime, maxWalltime)
	}
	if j.Runtime == 0 {
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
			m.queue = slices.Delete(m.queue, i, i+1)
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
	out := slices.Collect(maps.Values(m.running))
	slices.SortFunc(out, func(a, b *Job) int { return cmp.Compare(a.ID, b.ID) })
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
	return maps.Clone(m.usage)
}

// FreeCores returns the free cores on compute node i if it is powered on
// and has not failed, else 0.
func (m *Manager) FreeCores(i int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.up(i) {
		return 0
	}
	return m.free[i]
}

// NodeBusy reports whether any job occupies compute node i, or it has
// failed: either way the power manager leaves it alone.
func (m *Manager) NodeBusy(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodeBusy(i)
}

// nodeBusy is NodeBusy with m.mu held.
func (m *Manager) nodeBusy(i int) bool {
	return m.failed[i] || m.free[i] < m.Cluster.Computes[i].Cores()
}

// up reports whether compute node i is powered on and has not failed: the
// nodes whose free cores count. m.mu held.
func (m *Manager) up(i int) bool {
	return !m.failed[i] && m.Cluster.Computes[i].Power() == cluster.PowerOn
}

// sortQueue orders jobs by the active policy. m.mu held.
func (m *Manager) sortQueue(q []*Job) {
	now := m.Engine.Now()
	slices.SortStableFunc(q, func(a, b *Job) int { return m.policy.Compare(a, b, now, m.usage) })
}

// schedule runs one scheduling pass: start jobs in policy order; if backfill
// is enabled, lower-priority jobs that fit without delaying the blocked head
// job may start too. The jobs that started leave the queue in one
// compaction after the loop. m.mu held; WakeRequest is invoked under it, so
// the hook must not call back into the Manager synchronously (the power
// manager defers its reaction through the engine).
func (m *Manager) schedule() {
	m.sortQueue(m.queue)
	var blockedHead *Job
	shortfall := 0
	for _, j := range m.queue {
		alloc := m.tryPlace(j.Cores)
		if alloc == nil {
			if blockedHead == nil {
				blockedHead = j
				shortfall = j.Cores - m.totalFree()
			}
			if !m.policy.Backfill() {
				break
			}
			continue
		}
		// A backfill candidate starts only if it finishes by the shadow
		// time, which fitsInShadow takes as the latest end among running
		// jobs; a candidate that ends after the head could start may
		// therefore delay it.
		if blockedHead == nil || m.fitsInShadow(j) {
			m.start(j, alloc)
		}
	}
	m.queue = slices.DeleteFunc(m.queue, func(j *Job) bool { return j.State != StateQueued })
	if blockedHead != nil && m.WakeRequest != nil && shortfall > 0 {
		m.WakeRequest(shortfall, m.failed)
	}
}

// totalFree sums free cores over the nodes that are up. m.mu held.
func (m *Manager) totalFree() int {
	total := 0
	for i := range m.free {
		if m.up(i) {
			total += m.free[i]
		}
	}
	return total
}

// slot is one node a job could be placed on.
type slot struct{ node, free int }

// tryPlace finds an allocation for the requested cores over undrained up
// nodes (packing onto the fullest nodes first to reduce fragmentation), or
// nil if it does not fit — decided before anything is sorted or allocated,
// because a busy cluster asks on every pass. m.mu held.
func (m *Manager) tryPlace(cores int) []Share {
	if m.slots == nil {
		m.slots = make([]slot, 0, len(m.free))
	}
	slots, placeable := m.slots[:0], 0
	for i, free := range m.free {
		if free > 0 && m.up(i) && !m.drained[i] {
			slots = append(slots, slot{i, free})
			placeable += free
		}
	}
	m.slots = slots
	if placeable < cores {
		return nil
	}
	slices.SortFunc(slots, func(a, b slot) int {
		// Fullest (least free) first, then by name.
		return cmp.Or(cmp.Compare(a.free, b.free), m.byName(a.node, b.node))
	})
	var alloc []Share
	for _, s := range slots {
		if cores == 0 {
			break
		}
		take := min(s.free, cores)
		alloc = append(alloc, Share{s.node, take})
		cores -= take
	}
	// Hold the shares in name order: the order finish notifies drains in
	// and a job view lists its nodes in.
	slices.SortFunc(alloc, func(a, b Share) int { return m.byName(a.Node, b.Node) })
	return alloc
}

// fitsInShadow reports whether a backfill candidate's walltime ends by the
// latest walltime end among running jobs. That can be later than the
// earliest time enough cores free up for the blocked head job, the
// reservation EASY backfill makes, so a candidate it admits can delay the
// head.
func (m *Manager) fitsInShadow(j *Job) bool {
	if len(m.running) == 0 {
		return true
	}
	var shadow sim.Time
	for _, r := range m.running { //detlint:ordered max over values; equal candidates are interchangeable
		shadow = max(shadow, r.StartTime+sim.Time(r.Walltime))
	}
	return m.Engine.Now()+sim.Time(j.Walltime) <= shadow
}

// start allocates and begins a job, scheduling its completion event.
// m.mu held; the completion callback fires later from an engine advance,
// outside any Manager call, so it re-acquires the lock itself.
func (m *Manager) start(j *Job, alloc []Share) {
	for _, s := range alloc {
		m.free[s.Node] -= s.Cores
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

// finish releases a job's resources and charges its core-seconds, once, on
// the job: accounting reads them there. m.mu held; DrainNotify is invoked
// under it (see schedule's WakeRequest note).
func (m *Manager) finish(j *Job, state JobState) {
	if j.terminal() {
		return
	}
	m.release(j)
	j.State = state
	j.EndTime = m.Engine.Now()
	j.coreSecs = (j.EndTime - j.StartTime).Duration().Seconds() * float64(j.Cores)
	m.usage[j.User] += j.coreSecs
	if m.DrainNotify != nil {
		for _, s := range j.Alloc {
			if !m.nodeBusy(s.Node) {
				m.DrainNotify(s.Node)
			}
		}
	}
	m.done = append(m.done, j)
}

// release stops a running job and returns its cores: with start, the only
// writer of free. m.mu held.
func (m *Manager) release(j *Job) {
	m.Engine.Cancel(j.finish) // no-op for fired, cancelled, or zero handles
	delete(m.running, j.ID)
	for _, s := range j.Alloc {
		m.free[s.Node] += s.Cores
	}
}
