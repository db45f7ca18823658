package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// gate is an install hook that counts how many member builds are inside it
// at once. A member's frontend never calls the hook, so a build enters at
// its first compute attempt and leaves when that attempt returns.
type gate struct {
	inside, entered  atomic.Int64
	peak, goroutines atomic.Int64  // most builds inside, most goroutines alive
	hold             chan struct{} // nil: pass straight through
}

func raise(max *atomic.Int64, n int64) {
	for p := max.Load(); n > p && !max.CompareAndSwap(p, n); p = max.Load() {
	}
}

func (g *gate) hook(node string, attempt int) error {
	if node != "compute-0-1" || attempt != 1 {
		return nil // one entry per member build
	}
	raise(&g.peak, g.inside.Add(1))
	raise(&g.goroutines, int64(runtime.NumGoroutine()))
	g.entered.Add(1)
	if g.hold != nil {
		<-g.hold
	} else {
		runtime.Gosched() // let the other workers overlap if they can
	}
	g.inside.Add(-1)
	return nil
}

func armed(t *testing.T, spec Spec, g *gate) *Fleet {
	t.Helper()
	f, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range f.Members() {
		m.SetInstallHook(g.hook)
	}
	return f
}

// settleGoroutines waits for the goroutine count to come back to base: the
// workers exit after the last member settles, which is after Wait returns.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBuildsRunOnAtMostWorkers: the worker count is a real bound on builds
// in flight, every member is built exactly once, and asking for more
// workers than members starts only as many as there are members.
func TestBuildsRunOnAtMostWorkers(t *testing.T) {
	for _, tc := range []struct{ workers, members int }{{1, 24}, {2, 24}, {8, 24}, {16, 3}} {
		t.Run(fmt.Sprintf("workers=%d,members=%d", tc.workers, tc.members), func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := &gate{}
			f := armed(t, Spec{Members: tc.members, Nodes: 2, Parallelism: 2, Workers: tc.workers}, g)
			if err := f.Provision(context.Background()); err != nil {
				t.Fatal(err)
			}
			if n := runtime.NumGoroutine(); n > base+min(tc.workers, tc.members) {
				t.Errorf("%d goroutines right after Provision, want at most %d + %d", n, base, min(tc.workers, tc.members))
			}
			if err := f.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := g.entered.Load(); got != int64(tc.members) {
				t.Errorf("%d builds ran, want %d", got, tc.members)
			}
			if peak := g.peak.Load(); peak > int64(tc.workers) {
				t.Errorf("%d builds in flight at once, Workers is %d", peak, tc.workers)
			}
			settleGoroutines(t, base)
			if st := f.Status(); st.Ready != tc.members || st.Pending+st.Building != 0 {
				t.Errorf("status = %+v, want %d ready", st, tc.members)
			}
		})
	}
}

// TestGoroutinesBoundedByWorkers: a provision costs Workers goroutines,
// not two per member, from the first build to the last.
func TestGoroutinesBoundedByWorkers(t *testing.T) {
	const members, workers, slack = 100, 8, 2
	base := runtime.NumGoroutine()
	g := &gate{}
	f := armed(t, Spec{Members: members, Nodes: 2, Parallelism: 2, Workers: workers}, g)
	if err := f.Provision(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, limit := g.goroutines.Load(), int64(base+workers+slack); got > limit {
		t.Errorf("%d goroutines alive during a %d-member provision, want at most %d (start %d + %d workers + %d)",
			got, members, limit, base, workers, slack)
	}
	settleGoroutines(t, base)
}

// TestCancelDrainsPendingMembers stops a 200-member provision while its workers
// are blocked inside builds, once through Fleet.Cancel and once through
// the context Provision was given: every member must end terminal — the
// ones no worker had reached settle cancelled without building — Wait must
// return, and the workers must exit.
func TestCancelDrainsPendingMembers(t *testing.T) {
	for _, how := range []string{"Cancel", "ctx"} {
		t.Run(how, func(t *testing.T) {
			const members, workers = 200, 4
			base := runtime.NumGoroutine()
			g := &gate{hold: make(chan struct{})}
			f := armed(t, Spec{Members: members, Nodes: 2, Parallelism: 1, Workers: workers}, g)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := f.Provision(ctx); err != nil {
				t.Fatal(err)
			}
			for g.inside.Load() < workers { // every worker is inside a build
				time.Sleep(time.Millisecond)
			}
			if st := f.Status(); st.Building != workers || st.Pending != members-workers {
				t.Fatalf("mid-provision status = %+v, want %d building, %d pending", st, workers, members-workers)
			}
			if how == "Cancel" {
				f.Cancel()
			} else {
				cancel()
			}
			close(g.hold)

			done := make(chan error, 1)
			go func() { done <- f.Wait(context.Background()) }()
			select {
			case err := <-done:
				if err == nil {
					t.Error("Wait = nil after a cancelled provision")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Wait did not return after cancellation")
			}
			settleGoroutines(t, base)

			st := f.Status()
			if st.Pending+st.Building != 0 || st.Ready+st.Failed+st.Cancelled != members {
				t.Fatalf("status = %+v, want all %d members terminal", st, members)
			}
			// The in-flight builds stop before their second wave, so nothing
			// finishes ready, and nobody past the first four ever started.
			if st.Cancelled != members {
				t.Errorf("cancelled = %d, want %d", st.Cancelled, members)
			}
			if got := g.entered.Load(); got != workers {
				t.Errorf("%d builds started, want only the %d in flight at the cancel", got, workers)
			}
			for _, m := range f.Members() {
				if !m.State().Terminal() {
					t.Fatalf("%s is %s", m.ID, m.State())
				}
			}
		})
	}
}

func TestMemberIDMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 7, 9, 10, 99, 100, 999, 1000, 12345} {
		if got, want := memberID("campus", i), fmt.Sprintf("%s-%03d", "campus", i); got != want {
			t.Errorf("memberID(%d) = %q, want %q", i, got, want)
		}
	}
	long := "a-fleet-name-longer-than-the-stack-buffer-memberID-starts-with"
	if got, want := memberID(long, 5), long+"-005"; got != want {
		t.Errorf("memberID(long) = %q, want %q", got, want)
	}
}
