// Package sim provides a small discrete-event simulation engine used by the
// provisioning, scheduling, monitoring, and power-management substrates.
//
// The engine keeps a virtual clock and a priority queue of timed events.
// Callers schedule events with At or After and advance the clock with Step,
// RunUntil, or Run. Event handlers run on the caller's goroutine, so no
// locking is needed for state touched only from handlers.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start of
// the simulation.
type Time time.Duration

// Infinity is a Time later than any schedulable event.
const Infinity = Time(math.MaxInt64)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Duration converts the time to a time.Duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. The callback receives the engine so that it
// can schedule follow-up events. Callers hold Handles, not Events: the
// engine recycles executed Event structs through a free list.
type Event struct {
	At    Time
	Fn    func(*Engine)
	seq   uint64 // unique per scheduling; tie-break and Handle validity check
	index int    // heap index; -1 once popped or cancelled
}

// Handle identifies one scheduled event. It stays valid forever: the seq
// check makes a Handle inert once its event has executed or been cancelled,
// even after the engine reuses the underlying struct for a later event. The
// zero Handle is inert.
type Handle struct {
	ev  *Event
	seq uint64
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is ready to use.
//
// Executed Event structs are recycled through a free list, so steady-state
// scheduling (the tick pattern: every callback schedules its successor) runs
// without allocating. Handles stay safe across recycling: each carries the
// scheduling's sequence number, so Cancel on a stale Handle
// is a no-op rather than hitting whatever event reuses the struct.
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
	free  []*Event // executed events awaiting reuse
}

// maxFree bounds the free list so a drained queue does not pin every Event
// ever scheduled.
const maxFree = 1024

// NewEngine returns an idle engine at time zero. The event queue starts
// small — a fleet spins up one engine per member and most builds keep only
// a handful of events in flight; heavy scenarios grow it amortized.
func NewEngine() *Engine { return &Engine{queue: make(eventQueue, 0, 8)} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn at absolute virtual time t. Scheduling in the past is an
// error that is reported by panicking, since it indicates a logic bug in the
// simulation rather than a recoverable condition.
func (e *Engine) At(t Time, name string, fn func(*Engine)) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
		*ev = Event{At: t, Fn: fn, seq: e.seq}
	} else {
		ev = &Event{At: t, Fn: fn, seq: e.seq}
	}
	e.seq++
	heap.Push(&e.queue, ev)
	return Handle{ev: ev, seq: ev.seq}
}

// After schedules fn after delay d from the current virtual time.
func (e *Engine) After(d time.Duration, name string, fn func(*Engine)) Handle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+Time(d), name, fn)
}

// Cancel removes a scheduled event. Cancelling an already-executed,
// already-cancelled, or zero Handle is a no-op.
func (e *Engine) Cancel(h Handle) {
	if h.ev == nil || h.ev.seq != h.seq || h.ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, h.ev.index)
	h.ev.index = -2
}

// Step executes the next event, advancing the clock to its time. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.At
	ev.index = -2
	ev.Fn(e)
	// Recycle only after the callback returns: callbacks may Cancel the
	// very event that is firing (a no-op), which must not hit a reused
	// struct. In the steady tick pattern two structs simply alternate
	// between the queue and the free list, so scheduling stays
	// allocation-free.
	ev.Fn = nil
	if len(e.free) < maxFree {
		e.free = append(e.free, ev)
	}
	return true
}

// RunUntil executes events until the queue is empty or the next event is
// after deadline. The clock is advanced to deadline if it was reached.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].At <= deadline {
		e.Step()
	}
	if e.now < deadline && deadline != Infinity {
		e.now = deadline
	}
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}
