// Package orchestrator turns long-running cluster builds into first-class
// asynchronous jobs. A Job moves through an explicit lifecycle
//
//	pending → building → ready | failed | cancelled
//
// driven by a bounded worker pool, records its progress in a capped,
// thread-safe Journal, and supports cooperative cancellation: the build
// function receives a context that Cancel trips, and is expected to stop
// cleanly at its next safe point (between provisioning waves).
package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// State is a job's position in the deployment lifecycle.
type State int32

// Lifecycle states. Pending and Building are transient; the rest are
// terminal.
const (
	StatePending State = iota
	StateBuilding
	StateReady
	StateFailed
	StateCancelled
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateBuilding:
		return "building"
	case StateReady:
		return "ready"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateReady || s == StateFailed || s == StateCancelled
}

// BuildFunc performs the job's work. It must honor ctx (return promptly,
// wrapping ctx.Err(), once cancelled) and may call emit to journal progress;
// emit returns the sequence number assigned to the event. The returned value
// becomes the job's Result on success.
type BuildFunc func(ctx context.Context, emit func(Event) int) (any, error)

// Orchestrator runs jobs on a bounded pool: at most `workers` build
// functions execute concurrently; excess submissions queue in StatePending.
type Orchestrator struct {
	sem chan struct{}
}

// New returns an orchestrator running at most workers concurrent builds;
// workers < 1 is treated as 1.
func New(workers int) *Orchestrator {
	if workers < 1 {
		workers = 1
	}
	return &Orchestrator{sem: make(chan struct{}, workers)}
}

// Submit queues fn for execution and returns immediately with the job's
// handle in StatePending. The job's context derives from ctx, so cancelling
// ctx — or calling Job.Cancel — moves the job toward StateCancelled.
// journalCap bounds the job's event journal (<= 0 selects the default).
// The second argument is ignored: it was a label nothing read, and it stays
// in the signature only because bench/layerprobe, which BENCHMARK.json
// freezes, passes one.
func (o *Orchestrator) Submit(ctx context.Context, _ string, journalCap int, fn BuildFunc) *Job {
	j := NewJob(ctx, journalCap, fn)
	go func() {
		// Wait for a worker slot; a cancellation that lands first ends the
		// job without it ever running.
		select {
		case o.sem <- struct{}{}:
			defer func() { <-o.sem }()
		case <-j.ctx.Done():
		}
		j.Run()
	}()
	return j
}

// NewJob returns a job in StatePending that runs when its owner calls Run —
// on a goroutine the owner already has, which is how a fleet builds
// thousands of members on a handful of workers. Submit is NewJob plus a
// goroutine that takes a pool slot and calls Run.
func NewJob(ctx context.Context, journalCap int, fn BuildFunc) *Job {
	j := &Job{fn: fn, journal: Journal{cap: journalCapOf(journalCap)}, done: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancel(ctx)
	return j
}

// Run executes the job on the calling goroutine and returns once it is
// terminal: pending → building → ready | failed | cancelled. A job whose
// context was cancelled before Run never builds. Call it once.
func (j *Job) Run() {
	defer j.cancel()
	if err := j.ctx.Err(); err != nil {
		j.finish(nil, err)
		return
	}
	j.setState(StateBuilding)
	fn := j.fn
	j.fn = nil // a settled job does not keep what its build closed over
	j.finish(runBuild(j.ctx, fn, j.emit))
}

// runBuild invokes fn, converting a panic into a failure so one broken
// build cannot take down the whole control plane.
func runBuild(ctx context.Context, fn BuildFunc, emit func(Event) int) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("orchestrator: build panicked: %v", r)
		}
	}()
	return fn(ctx, emit)
}

// Job is one submitted build. All methods are safe for concurrent use.
type Job struct {
	fn      BuildFunc
	journal Journal
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	mu      sync.Mutex
	state   State
	result  any
	err     error
	subs    map[int]chan struct{} // nil until the first Subscribe
	nextSub int
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error: nil while running and on success,
// the build error once failed, and a context error once cancelled.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the build function's return value and true once the job is
// StateReady; otherwise nil and false.
func (j *Job) Result() (any, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateReady {
		return nil, false
	}
	return j.result, true
}

// Outcome returns the job's state together with the result (ready) or
// error (failed, cancelled) that state carries, read under one lock.
func (j *Job) Outcome() (State, any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.err
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job reaches a terminal state or ctx is done,
// whichever comes first, and returns the job's result and error. Waiting is
// passive: a ctx expiring here abandons the wait without cancelling the job.
func (j *Job) Wait(ctx context.Context) (any, error) {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.result, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel asks the job to stop. A pending job never runs; a building job's
// context is cancelled and the build stops at its next check point. Cancel
// after a terminal state is a no-op.
func (j *Job) Cancel() { j.cancel() }

// Events returns journaled events with Seq >= cursor plus the next cursor;
// see Journal.Since.
func (j *Job) Events(cursor int) ([]Event, int) { return j.journal.Since(cursor) }

// Subscribe registers for wake-ups: the returned channel receives (with a
// buffer of one, coalescing bursts) after every journal append and state
// change. The caller must invoke the returned cancel function when done.
func (j *Job) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	id := j.nextSub
	j.nextSub++
	if j.subs == nil {
		j.subs = make(map[int]chan struct{})
	}
	j.subs[id] = ch
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, id)
		j.mu.Unlock()
	}
}

// emit journals an event and wakes subscribers.
func (j *Job) emit(ev Event) int {
	seq := j.journal.Append(ev)
	j.mu.Lock()
	j.notifyLocked()
	j.mu.Unlock()
	return seq
}

func (j *Job) setState(s State) {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.state = s
		j.notifyLocked()
	}
	j.mu.Unlock()
}

// finish records the terminal state exactly once.
func (j *Job) finish(result any, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	switch {
	case err == nil:
		j.state, j.result = StateReady, result
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.state, j.err = StateCancelled, err
	default:
		j.state, j.err = StateFailed, err
	}
	j.notifyLocked()
	j.mu.Unlock()
	close(j.done)
}

// notifyLocked nudges every subscriber without blocking; a full buffer
// means a wake-up is already pending, which is all a subscriber needs.
func (j *Job) notifyLocked() {
	for _, ch := range j.subs { //detlint:ordered identical non-blocking nudge to every subscriber; no subscriber observes the order
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}
