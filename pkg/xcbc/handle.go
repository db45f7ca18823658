package xcbc

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"xcbc/internal/cluster"
	"xcbc/internal/orchestrator"
)

// DeployState is a deployment's position in its lifecycle:
//
//	pending → building → ready | failed | cancelled
//
// Pending and building are transient; the rest are terminal.
type DeployState string

// Deployment lifecycle states.
const (
	StatePending   DeployState = "pending"
	StateBuilding  DeployState = "building"
	StateReady     DeployState = "ready"
	StateFailed    DeployState = "failed"
	StateCancelled DeployState = "cancelled"
)

// Terminal reports whether the state is final.
func (s DeployState) Terminal() bool {
	return s == StateReady || s == StateFailed || s == StateCancelled
}

func stateOf(s orchestrator.State) DeployState {
	switch s {
	case orchestrator.StatePending:
		return StatePending
	case orchestrator.StateBuilding:
		return StateBuilding
	case orchestrator.StateReady:
		return StateReady
	case orchestrator.StateFailed:
		return StateFailed
	case orchestrator.StateCancelled:
		return StateCancelled
	}
	return DeployState(fmt.Sprintf("state(%d)", s))
}

// defaultPool is the orchestrator every Start shares: a bounded worker pool
// so a burst of deployment requests builds at most poolWorkers clusters
// concurrently while the rest queue in StatePending.
var (
	poolOnce sync.Once
	pool     *orchestrator.Orchestrator
)

func defaultPool() *orchestrator.Orchestrator {
	poolOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		if workers < 2 {
			workers = 2
		}
		if workers > 8 {
			workers = 8
		}
		pool = orchestrator.New(workers)
	})
	return pool
}

// PoolWorkers returns how many builds the pool every Start shares runs at
// once; a caller starting many sizes its backlog by it.
func PoolWorkers() int { return defaultPool().Workers() }

// Handle tracks one asynchronous deployment started with Builder.Start. All
// methods are safe for concurrent use.
type Handle struct {
	job *orchestrator.Job
	hw  *cluster.Cluster
}

// Status returns the deployment's current lifecycle state.
func (h *Handle) Status() DeployState { return stateOf(h.job.State()) }

// Hardware returns the hardware description the build targets, available
// from the moment Start returns (before the build finishes).
func (h *Handle) Hardware() *cluster.Cluster { return h.hw }

// Wait blocks until the deployment reaches a terminal state or ctx is done.
// On StateReady it returns the deployment; on failure or cancellation it
// returns the build's error. A ctx expiring here only abandons the wait —
// use Cancel to stop the build itself.
func (h *Handle) Wait(ctx context.Context) (*Deployment, error) {
	result, err := h.job.Wait(ctx)
	if err != nil {
		return nil, err
	}
	d, _ := result.(*Deployment)
	return d, nil
}

// Deployment returns the finished deployment and true once the handle is
// StateReady, otherwise nil and false. It never blocks.
func (h *Handle) Deployment() (*Deployment, bool) {
	result, ok := h.job.Result()
	if !ok {
		return nil, false
	}
	d, _ := result.(*Deployment)
	return d, true
}

// Cluster returns the live Cluster resource — the concurrency-safe day-2
// surface (jobs, metrics, validation, updates) — once the deployment is
// StateReady. Before that it fails with ErrNotReady (wrapping the current
// state in the message), so callers can poll or Wait first. It never
// blocks.
func (h *Handle) Cluster() (*Cluster, error) {
	d, ok := h.Deployment()
	if !ok {
		return nil, fmt.Errorf("%w: deployment is %s", ErrNotReady, h.Status())
	}
	return d.Open(), nil
}

// Err returns the deployment's terminal error: nil while in flight and on
// success, the build error once failed, a context error once cancelled.
func (h *Handle) Err() error { return h.job.Err() }

// Cancel asks the build to stop. A pending build never starts; a running
// build stops cleanly at its next wave boundary, leaving already-installed
// nodes installed and pending nodes untouched. Cancel after a terminal
// state is a no-op.
func (h *Handle) Cancel() { h.job.Cancel() }

// Done returns a channel closed when the deployment reaches a terminal
// state.
func (h *Handle) Done() <-chan struct{} { return h.job.Done() }

// Events returns journaled progress events with Seq >= cursor, plus the
// cursor to pass on the next call. The journal is a capped ring: a reader
// that falls more than the journal capacity behind resumes at the oldest
// retained event.
func (h *Handle) Events(cursor int) ([]Event, int) {
	evs, next := h.job.Events(cursor)
	out := make([]Event, len(evs))
	for i, ev := range evs {
		out[i] = Event{Seq: ev.Seq, Stage: ev.Stage, Node: ev.Node,
			Message: ev.Message, Packages: ev.Packages, Elapsed: ev.Elapsed}
	}
	return out, next
}

// Subscribe registers for wake-ups after every journaled event and state
// change; the channel coalesces bursts. Call the returned function to
// unsubscribe.
func (h *Handle) Subscribe() (<-chan struct{}, func()) { return h.job.Subscribe() }

// Watch streams journal events to fn, in order from the start of the
// journal, until the deployment reaches a terminal state or ctx is done —
// including the events that raced the terminal transition, which a naive
// poll-then-check loop would drop. It returns the last state observed.
// fn runs on the caller's goroutine.
func (h *Handle) Watch(ctx context.Context, fn func(Event)) DeployState {
	wake, unsubscribe := h.Subscribe()
	defer unsubscribe()
	cursor := 0
	drain := func() {
		var evs []Event
		evs, cursor = h.Events(cursor)
		for _, ev := range evs {
			fn(ev)
		}
	}
	for {
		drain()
		if st := h.Status(); st.Terminal() {
			drain()
			return st
		}
		select {
		case <-wake:
		case <-h.job.Done():
		case <-ctx.Done():
			return h.Status()
		}
	}
}

// start submits fn on the shared pool and wraps the job in a Handle.
func start(ctx context.Context, hw *cluster.Cluster,
	fn func(ctx context.Context, emit func(Event) int) (*Deployment, error)) *Handle {
	job := defaultPool().Submit(ctx, "", 0, func(jctx context.Context, emit func(orchestrator.Event) int) (any, error) {
		wrapped := func(ev Event) int {
			return emit(orchestrator.Event{Stage: ev.Stage, Node: ev.Node,
				Message: ev.Message, Packages: ev.Packages, Elapsed: ev.Elapsed})
		}
		return fn(jctx, wrapped)
	})
	return &Handle{job: job, hw: hw}
}
