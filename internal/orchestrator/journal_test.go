package orchestrator

import (
	"fmt"
	"sync"
	"testing"
)

func TestJournalSequenceAndCursor(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		if seq := j.Append(Event{Stage: "compute", Message: fmt.Sprint(i)}); seq != i {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	evs, next := j.Since(0)
	if len(evs) != 5 || next != 5 {
		t.Fatalf("Since(0) = %d events, next %d; want 5, 5", len(evs), next)
	}
	for i, ev := range evs {
		if ev.Seq != i || ev.Message != fmt.Sprint(i) {
			t.Errorf("event %d = %+v", i, ev)
		}
	}
	// Incremental read picks up only the new tail.
	j.Append(Event{Message: "5"})
	evs, next = j.Since(next)
	if len(evs) != 1 || evs[0].Seq != 5 || next != 6 {
		t.Fatalf("incremental read = %+v, next %d", evs, next)
	}
	// Reading at the tip returns nothing, same cursor.
	if evs, next2 := j.Since(next); len(evs) != 0 || next2 != next {
		t.Fatalf("read at tip = %d events, next %d", len(evs), next2)
	}
}

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append(Event{Message: fmt.Sprint(i)})
	}
	// A stale cursor lands on the oldest retained entry, in order.
	evs, next := j.Since(0)
	if len(evs) != 4 || next != 10 {
		t.Fatalf("Since(0) after overflow = %d events, next %d", len(evs), next)
	}
	for i, ev := range evs {
		if want := 6 + i; ev.Seq != want || ev.Message != fmt.Sprint(want) {
			t.Errorf("retained[%d] = %+v, want seq %d", i, ev, want)
		}
	}
}

func TestJournalDefaultCap(t *testing.T) {
	j := NewJournal(0)
	for i := 0; i < DefaultJournalCap+10; i++ {
		j.Append(Event{})
	}
	if evs, _ := j.Since(0); len(evs) != DefaultJournalCap {
		t.Fatalf("retained %d, want %d", len(evs), DefaultJournalCap)
	}
}

// TestJournalConcurrent hammers a journal from appenders and cursor-driven
// readers; run under -race this is the regression test for the unguarded
// Events slice the API server used to keep.
func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Append(Event{Stage: "compute", Node: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cursor := 0; cursor < 2000; {
				var evs []Event
				evs, cursor = j.Since(cursor)
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq != evs[i-1].Seq+1 {
						t.Errorf("non-contiguous read: %d then %d", evs[i-1].Seq, evs[i].Seq)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if _, total := j.Since(0); total != 2000 {
		t.Fatalf("total = %d, want 2000", total)
	}
}

// TestJournalBackingStaysCapped is the memory regression test for the ring
// growth fix: append's natural doubling could strand a backing array up to
// 2x the configured capacity (dead weight on every journal of every fleet
// member). The ring must never allocate beyond its cap at any point during
// growth — including odd caps that doubling would overshoot — and must keep
// serving reads correctly once saturated.
func TestJournalBackingStaysCapped(t *testing.T) {
	for _, capacity := range []int{1, 2, 15, 16, 17, 100, 512, DefaultJournalCap} {
		j := NewJournal(capacity)
		for i := 0; i < 4*capacity+7; i++ {
			j.Append(Event{Stage: "compute", Seq: -1, Message: "x"})
			if got := cap(j.buf); got > capacity {
				t.Fatalf("cap %d: backing array grew to %d after %d appends", capacity, got, i+1)
			}
			if got := len(j.buf); got > capacity {
				t.Fatalf("cap %d: ring holds %d events after %d appends", capacity, got, i+1)
			}
		}
		total := 4*capacity + 7
		evs, next := j.Since(0)
		if len(evs) != capacity || next != total {
			t.Fatalf("cap %d: Since(0) = %d events, next %d; want %d, %d",
				capacity, len(evs), next, capacity, total)
		}
		if evs[0].Seq != total-capacity || evs[len(evs)-1].Seq != total-1 {
			t.Fatalf("cap %d: retained window [%d, %d], want [%d, %d]",
				capacity, evs[0].Seq, evs[len(evs)-1].Seq, total-capacity, total-1)
		}
	}
}
