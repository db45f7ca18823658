package xcbc

import (
	"context"
	"fmt"
	"slices"

	"xcbc/internal/fleet"
)

// Fleet-scale deployment: many clusters stamped from one recipe, built
// concurrently on a bounded worker pool and operated member-by-member
// through the same Cluster resource single deployments use. This is the
// surface the scenario engine (RunScenario) and the /api/v1/fleets control
// plane drive.

// FleetSpec sizes a fleet.
type FleetSpec struct {
	// Name labels the fleet; member IDs derive from it. Default "fleet".
	Name string
	// Members is the number of clusters; must be >= 1.
	Members int
	// Cluster is the catalog machine every member clones (see Clusters()).
	// Default "littlefe".
	Cluster string
	// Nodes overrides each member's compute-node count (0 = as cataloged).
	Nodes int
	// Scheduler is the batch system each member runs. Default "torque".
	Scheduler string
	// Parallelism is the per-member kickstart wave width.
	Parallelism int
	// Retries is the per-node install retry budget before quarantine.
	Retries int
	// Workers bounds concurrent member builds fleet-wide (0 = automatic).
	Workers int
}

// FleetStatus is an aggregate lifecycle snapshot; Settled reports whether
// every member reached a terminal state.
type FleetStatus = fleet.Status

// Fleet manages N member clusters as one unit. All methods are safe for
// concurrent use.
type Fleet struct {
	fl      *fleet.Fleet
	members []*FleetMember // fixed at NewFleet, index order
}

// NewFleet assembles a fleet; member hardware is stamped out immediately,
// builds start at Provision.
func NewFleet(spec FleetSpec) (*Fleet, error) {
	fl, err := fleet.New(fleet.Spec(spec))
	if err != nil {
		return nil, err
	}
	f := &Fleet{fl: fl, members: make([]*FleetMember, fl.Len())}
	wrappers := make([]FleetMember, fl.Len())
	for i, m := range fl.Members() {
		wrappers[i].m = m
		f.members[i] = &wrappers[i]
	}
	return f, nil
}

// Provision starts every member's build on the fleet's worker pool and
// returns immediately; use Wait to block for the whole fleet.
func (f *Fleet) Provision(ctx context.Context) error {
	if err := f.fl.Provision(ctx); err != nil {
		return fmt.Errorf("%w: %v", ErrBadOption, err)
	}
	return nil
}

// Deploy is the synchronous convenience wrapper: Provision plus Wait.
func (f *Fleet) Deploy(ctx context.Context) error {
	if err := f.Provision(ctx); err != nil {
		return err
	}
	return f.Wait(ctx)
}

// Wait blocks until every member build settles or ctx expires; it returns
// nil when all members are ready, otherwise the first member failure.
func (f *Fleet) Wait(ctx context.Context) error { return f.fl.Wait(ctx) }

// Cancel asks every in-flight member build to stop.
func (f *Fleet) Cancel() { f.fl.Cancel() }

// Len returns the member count.
func (f *Fleet) Len() int { return f.fl.Len() }

// Provisioned reports whether Provision has been called (builds may
// still be in flight).
func (f *Fleet) Provisioned() bool { return f.fl.Provisioned() }

// Status counts members by lifecycle state.
func (f *Fleet) Status() FleetStatus { return f.fl.Status() }

// Members returns the fleet's members in index order.
func (f *Fleet) Members() []*FleetMember { return slices.Clone(f.members) }

// Member returns one member by index.
func (f *Fleet) Member(i int) (*FleetMember, bool) {
	if i < 0 || i >= len(f.members) {
		return nil, false
	}
	return f.members[i], true
}

// RunScenario drives this fleet through a scenario script (the fleet's
// size must match the scenario's member count). See RunScenario for the
// standalone form.
func (f *Fleet) RunScenario(ctx context.Context, sc *Scenario) (*ScenarioResult, error) {
	return runScenarioOn(ctx, f.fl, sc)
}

// RunScenarioObserved is RunScenario with a progress observer: obs is
// called with every trace event as the run emits it, in trace order, on
// the run's goroutine (nil obs behaves like RunScenario). It is the seam
// a durable store uses to journal run progress as it happens.
func (f *Fleet) RunScenarioObserved(ctx context.Context, sc *Scenario, obs func(TraceEvent)) (*ScenarioResult, error) {
	return runScenarioObserved(ctx, f.fl, sc, obs)
}

// FleetMember is one cluster of a fleet.
type FleetMember struct {
	m *fleet.Member
}

// ID returns the member's fleet-unique identifier (e.g. "fleet-007").
func (fm *FleetMember) ID() string { return fm.m.ID }

// Index returns the member's position in the fleet.
func (fm *FleetMember) Index() int { return fm.m.Index }

// Status returns the member's build lifecycle state.
func (fm *FleetMember) Status() DeployState { return stateOf(fm.m.State()) }

// Err returns the member's terminal build error, nil while in flight and
// on success.
func (fm *FleetMember) Err() error { return fm.m.Err() }

// Cluster returns the member's live day-2 resource once its build is
// ready, failing with ErrNotReady before that. It runs through the
// deployment's own day-2 adapter, the one the fleet's scenario runner and
// Cluster().Deployment().Open() use too, so concurrent use stays safe.
func (fm *FleetMember) Cluster() (*Cluster, error) {
	ops, err := fm.m.Operations()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotReady, err)
	}
	cd, _ := fm.m.Deployment()
	return openCluster(&Deployment{core: cd}, ops), nil
}
