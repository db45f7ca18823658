// Package fleet manages many simulated clusters as one unit: N members,
// each with its own hardware description and discrete-event engine, built
// concurrently by a bounded set of worker goroutines and operated through
// the day-2 Operations adapter once ready.
//
// A fleet is what the paper's XSEDE team actually ran: the same recipe
// stamped out across many campuses, each with its own failure conditions.
// The scenario engine (internal/scenario) drives a fleet through seeded
// chaos scripts; this package keeps the mechanics — provisioning fan-out,
// aggregate status, the shared XNIT repository, and the per-member
// fault-injection seam — reusable on their own.
//
// Determinism contract: every member simulates on a private engine, so
// concurrent builds never share a clock, and per-member results (install
// duration, package counts, quarantine sets) are reproducible regardless
// of how the worker pool interleaves builds.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"xcbc/internal/cluster"
	"xcbc/internal/core"
	"xcbc/internal/orchestrator"
	"xcbc/internal/repo"
	"xcbc/internal/sim"
)

// Sentinel errors; test with errors.Is.
var (
	// ErrBadSpec reports an invalid fleet specification.
	ErrBadSpec = errors.New("fleet: bad spec")
	// ErrAlreadyProvisioned reports a second Provision call.
	ErrAlreadyProvisioned = errors.New("fleet: already provisioned")
	// ErrNotProvisioned reports an operation that needs Provision first.
	ErrNotProvisioned = errors.New("fleet: not provisioned")
	// ErrMemberNotReady reports a day-2 operation on a member whose build
	// has not reached the ready state.
	ErrMemberNotReady = errors.New("fleet: member not ready")
)

// Spec describes a fleet: how many copies of which cataloged machine, and
// how aggressively to build them.
type Spec struct {
	// Name labels the fleet; member IDs derive from it. Default "fleet".
	Name string
	// Members is the number of clusters; must be >= 1.
	Members int
	// Cluster is the catalog machine every member clones. Default
	// "littlefe".
	Cluster string
	// Nodes overrides the compute-node count per member (0 = as cataloged).
	Nodes int
	// Scheduler is the batch system each member runs. Default "torque".
	Scheduler string
	// Parallelism is the per-member kickstart wave width (how many compute
	// installs overlap inside one member's build).
	Parallelism int
	// Retries is the per-node install retry budget before quarantine.
	Retries int
	// Workers bounds how many member builds run concurrently across the
	// whole fleet (0 = min(16, max(2, GOMAXPROCS))).
	Workers int
}

func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "fleet"
	}
	if s.Cluster == "" {
		s.Cluster = "littlefe"
	}
	if s.Scheduler == "" {
		s.Scheduler = "torque"
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
		if s.Workers < 2 {
			s.Workers = 2
		}
		if s.Workers > 16 {
			s.Workers = 16
		}
	}
	return s
}

// Validate rejects impossible specs with ErrBadSpec.
func (s Spec) Validate() error {
	if s.Members < 1 {
		return fmt.Errorf("%w: members must be >= 1, got %d", ErrBadSpec, s.Members)
	}
	if s.Nodes < 0 {
		return fmt.Errorf("%w: negative node count %d", ErrBadSpec, s.Nodes)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("%w: negative parallelism %d", ErrBadSpec, s.Parallelism)
	}
	if s.Retries < 0 {
		return fmt.Errorf("%w: negative retries %d", ErrBadSpec, s.Retries)
	}
	if s.Cluster != "" {
		if _, err := cluster.FromCatalog(s.Cluster); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	return nil
}

// Fleet is a set of member clusters sharing one build pool and one cached
// XNIT repository. All methods are safe for concurrent use.
type Fleet struct {
	spec    Spec
	members []*Member
	next    atomic.Int64 // index of the next member a build worker takes

	mu          sync.Mutex
	provisioned bool

	xnitOnce sync.Once
	xnitRepo *repo.Repository
	xnitErr  error
}

// New assembles a fleet from a spec: the catalog machine is built and
// resized once and every member's hardware is cloned from that template
// immediately (so Hardware is inspectable before any build); builds start
// only at Provision. A member owns its nodes and everything a build writes
// to them; it shares with the template only the immutable component lists
// (see cluster.Clone).
func New(spec Spec) (*Fleet, error) {
	s := spec.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	template, err := cluster.FromCatalog(s.Cluster)
	if err == nil && s.Nodes > 0 {
		err = cluster.ResizeComputes(template, s.Nodes)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	f := &Fleet{spec: s}
	slab := make([]Member, s.Members)
	f.members = make([]*Member, s.Members)
	for i := range slab {
		slab[i] = Member{Index: i, ID: memberID(s.Name, i), fleet: f, hw: template.Clone()}
		f.members[i] = &slab[i]
	}
	return f, nil
}

// memberID is fmt.Sprintf("%s-%03d", name, i) in one allocation.
func memberID(name string, i int) string {
	var buf [48]byte
	id := append(append(buf[:0], name...), '-')
	for pad := 100; pad > 1 && i < pad; pad /= 10 {
		id = append(id, '0')
	}
	return string(strconv.AppendInt(id, int64(i), 10))
}

// Spec returns the fleet's effective (defaulted) specification.
func (f *Fleet) Spec() Spec { return f.spec }

// Len returns the member count.
func (f *Fleet) Len() int { return len(f.members) }

// Members returns the fleet's members in index order.
func (f *Fleet) Members() []*Member { return append([]*Member(nil), f.members...) }

// Provisioned reports whether Provision has been called (builds may still
// be in flight).
func (f *Fleet) Provisioned() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.provisioned
}

// Provision creates every member's build job and returns immediately while
// min(Spec.Workers, members) goroutines run them: each takes the next
// member index, runs that build on its own stack, settles it, and exits
// when the indexes run out. The rest stay pending until a worker reaches
// them — a cancelled one then settles without building. Use Wait to block
// for the whole fleet. A second call fails with ErrAlreadyProvisioned.
func (f *Fleet) Provision(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.provisioned {
		return ErrAlreadyProvisioned
	}
	f.provisioned = true
	for _, m := range f.members {
		m.newJob(ctx)
	}
	for range min(f.spec.Workers, len(f.members)) {
		go func() {
			for {
				i := int(f.next.Add(1)) - 1
				if i >= len(f.members) {
					return
				}
				f.members[i].job.Run()
			}
		}()
	}
	return nil
}

// Wait blocks until every member's build settles or ctx expires. It
// returns nil when all members are ready; otherwise the first non-nil
// member build error (members that merely got cancelled surface their
// context error).
func (f *Fleet) Wait(ctx context.Context) error {
	if !f.Provisioned() {
		return ErrNotProvisioned
	}
	var firstErr error
	for _, m := range f.members {
		if _, err := m.job.Wait(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("fleet: member %s: %w", m.ID, err)
			}
		}
	}
	return firstErr
}

// Cancel asks every in-flight member build to stop; settled members are
// unaffected. Safe before Provision (a no-op).
func (f *Fleet) Cancel() {
	for _, m := range f.members {
		m.Cancel()
	}
}

// Status is an aggregate snapshot of the fleet's lifecycle.
type Status struct {
	Members     int `json:"members"`
	Pending     int `json:"pending"`
	Building    int `json:"building"`
	Ready       int `json:"ready"`
	Failed      int `json:"failed"`
	Cancelled   int `json:"cancelled"`
	Quarantined int `json:"quarantined"` // quarantined compute nodes across ready members
}

// Settled reports whether every member reached a terminal state.
func (s Status) Settled() bool {
	return s.Members > 0 && s.Pending == 0 && s.Building == 0
}

// Status counts members by state. Members not yet provisioned count as
// pending.
func (f *Fleet) Status() Status {
	st := Status{Members: len(f.members)}
	for _, m := range f.members {
		state, result := orchestrator.StatePending, any(nil)
		if job := m.currentJob(); job != nil {
			state, result, _ = job.Outcome()
		}
		switch state {
		case orchestrator.StatePending:
			st.Pending++
		case orchestrator.StateBuilding:
			st.Building++
		case orchestrator.StateReady:
			st.Ready++
			if d, ok := result.(*core.Deployment); ok {
				st.Quarantined += len(d.Quarantined)
			}
		case orchestrator.StateFailed:
			st.Failed++
		case orchestrator.StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// XNITRepo builds the shared XSEDE repository on first use and returns the
// cached instance afterwards: one Publish of the full catalog serves every
// member, which is what makes fleet-wide update rollouts affordable.
func (f *Fleet) XNITRepo() (*repo.Repository, error) {
	f.xnitOnce.Do(func() {
		f.xnitRepo, f.xnitErr = core.NewXNITRepository()
	})
	return f.xnitRepo, f.xnitErr
}

// Member is one cluster of the fleet. All methods are safe for concurrent
// use.
type Member struct {
	Index int
	ID    string

	fleet *Fleet
	hw    *cluster.Cluster

	mu   sync.Mutex
	hook func(node string, attempt int) error
	job  *orchestrator.Job
}

// Hardware returns the member's hardware description.
func (m *Member) Hardware() *cluster.Cluster { return m.hw }

// SetInstallHook arms the member's fault-injection seam: fn runs before
// every node install attempt of this member's build (attempt numbering
// starts at 1); an error fails that attempt. Arm it before Provision —
// arming mid-build affects only attempts that have not started yet.
func (m *Member) SetInstallHook(fn func(node string, attempt int) error) {
	m.mu.Lock()
	m.hook = fn
	m.mu.Unlock()
}

// runHook invokes the currently armed hook, if any.
func (m *Member) runHook(node string, attempt int) error {
	m.mu.Lock()
	fn := m.hook
	m.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(node, attempt)
}

// newJob creates the member's build job, pending until a fleet worker runs
// it; the engine and everything else the build needs are allocated when it
// starts, on the worker. A member's build reports no progress: nothing
// reads a member's journal, so it stays empty.
func (m *Member) newJob(ctx context.Context) {
	spec := &m.fleet.spec
	job := orchestrator.NewJob(ctx, 0, func(jctx context.Context, _ func(orchestrator.Event) int) (any, error) {
		return core.BuildXCBCContext(jctx, sim.NewEngine(), m.hw, core.Options{
			Scheduler:   spec.Scheduler,
			Parallelism: spec.Parallelism,
			Retries:     spec.Retries,
			InstallHook: m.runHook,
		})
	})
	m.mu.Lock()
	m.job = job
	m.mu.Unlock()
}

// currentJob returns the member's build job, nil before Provision.
func (m *Member) currentJob() *orchestrator.Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.job
}

// State returns the member's build lifecycle state (StatePending before
// Provision).
func (m *Member) State() orchestrator.State {
	if job := m.currentJob(); job != nil {
		return job.State()
	}
	return orchestrator.StatePending
}

// Err returns the member's terminal build error, nil while in flight and
// on success.
func (m *Member) Err() error {
	if job := m.currentJob(); job != nil {
		return job.Err()
	}
	return nil
}

// Cancel asks the member's build to stop; a no-op before Provision and
// after a terminal state.
func (m *Member) Cancel() {
	if job := m.currentJob(); job != nil {
		job.Cancel()
	}
}

// Deployment returns the member's built deployment and true once the build
// is ready; nil and false before that. It never blocks.
func (m *Member) Deployment() (*core.Deployment, bool) {
	if job := m.currentJob(); job != nil {
		if result, ok := job.Result(); ok {
			d, ok := result.(*core.Deployment)
			return d, ok
		}
	}
	return nil, false
}

// Operations returns the day-2 adapter of the member's deployment: the
// deployment's own, so every consumer shares one serialization point over
// the member's engine. It fails with ErrMemberNotReady until the build
// settles ready.
func (m *Member) Operations() (*core.Operations, error) {
	d, ok := m.Deployment()
	if !ok {
		return nil, fmt.Errorf("%w: %s is %s", ErrMemberNotReady, m.ID, m.State())
	}
	return d.Operations(), nil
}

// AdoptXNIT attaches the fleet's shared XSEDE repository to the member's
// deployment (idempotent), making cluster-wide installs and update checks
// possible. The repository object is shared across the fleet; repo.Set is
// concurrency-safe, and each member gets its own Set entry.
func (m *Member) AdoptXNIT() error {
	d, ok := m.Deployment()
	if !ok {
		return fmt.Errorf("%w: %s is %s", ErrMemberNotReady, m.ID, m.State())
	}
	if d.Repos.Lookup(core.XNITRepoID) != nil {
		return nil
	}
	xnit, err := m.fleet.XNITRepo()
	if err != nil {
		return err
	}
	core.ConfigureXNIT(d, xnit)
	return nil
}
