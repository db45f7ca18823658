package sim

import (
	"testing"
	"time"
)

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty engine should return false")
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.After(3*time.Second, "c", func(*Engine) { order = append(order, "c") })
	e.After(1*time.Second, "a", func(*Engine) { order = append(order, "a") })
	e.After(2*time.Second, "b", func(*Engine) { order = append(order, "b") })
	e.Run()
	got := ""
	for _, s := range order {
		got += s
	}
	if got != "abc" {
		t.Fatalf("order = %q, want abc", got)
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
}

func TestEqualTimeEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, "ev", func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO for equal times)", i, v, i)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(time.Second, "outer", func(e *Engine) {
		fired = append(fired, e.Now())
		e.After(time.Second, "inner", func(e *Engine) {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != Time(time.Second) || fired[1] != Time(2*time.Second) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.After(time.Second, "x", func(*Engine) { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double-cancel and a zero Handle are no-ops.
	e.Cancel(ev)
	e.Cancel(Handle{})
}

// TestStaleHandleAfterRecycle pins the free-list safety contract: once an
// event has fired and its struct has been reused for a later scheduling,
// the old Handle must stay inert — Cancel must not touch the new event.
func TestStaleHandleAfterRecycle(t *testing.T) {
	e := NewEngine()
	var ran []string
	stale := e.After(time.Second, "first", func(*Engine) { ran = append(ran, "first") })
	e.Run()
	// The free list hands the same struct to the next scheduling.
	e.After(time.Second, "second", func(*Engine) { ran = append(ran, "second") })
	e.Cancel(stale) // must NOT cancel "second"
	e.Run()
	if len(ran) != 2 || ran[1] != "second" {
		t.Fatalf("ran = %v, want [first second]", ran)
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var order []string
	a := e.After(1*time.Second, "a", func(*Engine) { order = append(order, "a") })
	e.After(2*time.Second, "b", func(*Engine) { order = append(order, "b") })
	e.After(3*time.Second, "c", func(*Engine) { order = append(order, "c") })
	e.Cancel(a)
	e.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "c" {
		t.Fatalf("order = %v, want [b c]", order)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 5; i++ {
		e.After(time.Duration(i)*time.Second, "ev", func(*Engine) { count++ })
	}
	e.RunUntil(Time(3 * time.Second))
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
	e.RunUntil(Time(10 * time.Second))
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != Time(10*time.Second) {
		t.Fatalf("Now() should advance to deadline, got %v", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.After(time.Second, "a", func(*Engine) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(0, "past", func(*Engine) {})
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	e.RunUntil(Time(time.Second))
	ran := false
	e.After(-5*time.Second, "neg", func(*Engine) { ran = true })
	e.Step()
	if !ran {
		t.Fatal("event with negative delay should run immediately")
	}
	if e.Now() != Time(time.Second) {
		t.Fatalf("Now() = %v, want 1s", e.Now())
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds() = %v", tm.Seconds())
	}
	if tm.Duration() != 1500*time.Millisecond {
		t.Fatalf("Duration() = %v", tm.Duration())
	}
	if tm.String() != "1.5s" {
		t.Fatalf("String() = %q", tm.String())
	}
}
