package orchestrator

import (
	"sync"
	"time"
)

// Event is one entry in a deployment's journal. Seq numbers are assigned by
// the journal, start at 0, and never repeat or go backwards, so a caller can
// use them as a resume cursor across polls even after old entries have been
// evicted from the ring.
type Event struct {
	Seq      int
	Stage    string
	Node     string
	Message  string
	Packages int
	Elapsed  time.Duration // simulated time the step consumed
}

// DefaultJournalCap bounds a journal when the caller passes no capacity. A
// build journal holds roughly one entry per node plus a handful of phase
// markers, so 512 covers clusters far larger than anything in the catalog
// while keeping worst-case memory per deployment fixed.
const DefaultJournalCap = 512

// Journal is a bounded, thread-safe event log. It keeps the most recent
// `cap` events in a ring; older events are evicted but their sequence
// numbers remain burned, so Since can tell a reader how much it missed.
type Journal struct {
	mu   sync.Mutex
	buf  []Event // ring storage, len(buf) <= capacity
	next int     // sequence number of the next Append
	cap  int
}

// NewJournal returns a journal holding at most capacity events; capacity
// <= 0 selects DefaultJournalCap.
func NewJournal(capacity int) *Journal {
	return &Journal{cap: journalCapOf(capacity)}
}

func journalCapOf(capacity int) int {
	if capacity <= 0 {
		return DefaultJournalCap
	}
	return capacity
}

// Reserve sizes the ring's storage for n further events (clipped to the
// capacity), so a writer that knows its event count allocates once instead
// of doubling up to it.
func (j *Journal) Reserve(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n = min(len(j.buf)+n, j.cap); n > cap(j.buf) {
		j.buf = append(make([]Event, 0, n), j.buf...)
	}
}

// Append records an event, evicting the oldest entry if the ring is full,
// and returns the sequence number it was assigned.
func (j *Journal) Append(ev Event) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev.Seq = j.next
	if len(j.buf) < j.cap {
		if len(j.buf) == cap(j.buf) {
			// Grow the ring storage ourselves instead of letting append
			// double past the configured capacity: append's doubling can
			// strand a backing array up to 2x the ring cap (dead weight on
			// every journal of every fleet member), while clamping the
			// growth target to j.cap keeps worst-case memory exactly at
			// the configured bound.
			newCap := 2 * cap(j.buf)
			if newCap < 16 {
				newCap = 16
			}
			if newCap > j.cap {
				newCap = j.cap
			}
			grown := make([]Event, len(j.buf), newCap)
			copy(grown, j.buf)
			j.buf = grown
		}
		j.buf = append(j.buf, ev)
	} else {
		j.buf[ev.Seq%j.cap] = ev
	}
	j.next++
	return ev.Seq
}

// Since returns, in order, every retained event with Seq >= cursor, plus the
// cursor to pass next time (one past the newest event). A cursor older than
// the ring's oldest entry silently skips the evicted gap — the returned
// events always start at the oldest retained entry.
func (j *Journal) Since(cursor int) ([]Event, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	oldest := j.next - len(j.buf)
	if cursor < oldest {
		cursor = oldest
	}
	if cursor >= j.next {
		return nil, j.next
	}
	out := make([]Event, 0, j.next-cursor)
	for s := cursor; s < j.next; s++ {
		out = append(out, j.buf[s%j.cap])
	}
	return out, j.next
}
