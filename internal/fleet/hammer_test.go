package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"xcbc/internal/sched"
)

// TestHammerConcurrentFleet drives a 32-member fleet with concurrent
// provisioning, day-2 opens, job submission, metrics sampling, status
// polling, and cancellation — the interleavings the race detector needs to
// see before an HTTP control plane is allowed to fan these calls out.
func TestHammerConcurrentFleet(t *testing.T) {
	const members = 32
	f, err := New(Spec{Name: "hammer", Members: members, Nodes: 2, Parallelism: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Provision(context.Background()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Status pollers race the builds.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := f.Status()
				if st.Members != members {
					t.Errorf("status members = %d, want %d", st.Members, members)
					return
				}
			}
		}()
	}

	// Per-member operators: open day-2 surface as soon as ready, submit
	// and advance, occasionally cancel a late member's build.
	for i, m := range f.Members() {
		wg.Add(1)
		go func(i int, m *Member) {
			defer wg.Done()
			if i%8 == 7 {
				m.Cancel() // some cancellations race the pending->building edge
				return
			}
			deadline := time.After(30 * time.Second)
			for {
				ops, err := m.Operations()
				if err == nil {
					if _, err := ops.SubmitJob(&sched.Job{User: "hammer", Cores: 1, Walltime: time.Minute}); err != nil {
						t.Errorf("%s: submit: %v", m.ID, err)
					}
					ops.Advance(2 * time.Minute)
					ops.SampleMetrics()
					if err := m.AdoptXNIT(); err != nil {
						t.Errorf("%s: adopt: %v", m.ID, err)
					}
					return
				}
				if m.State().Terminal() {
					return // cancelled or failed; nothing to operate
				}
				select {
				case <-deadline:
					t.Errorf("%s: never became operable (state %s)", m.ID, m.State())
					return
				case <-time.After(time.Millisecond):
				}
			}
		}(i, m)
	}

	if err := f.Wait(context.Background()); err != nil {
		// Cancelled members surface context errors through Wait; that is
		// expected here — only unexpected build failures are a problem.
		for _, m := range f.Members() {
			if m.State().String() == "failed" {
				t.Fatalf("%s failed: %v", m.ID, m.Err())
			}
		}
	}
	close(stop)
	wg.Wait()

	st := f.Status()
	if st.Pending+st.Building != 0 {
		t.Fatalf("fleet not settled: %+v", st)
	}
	if st.Ready == 0 {
		t.Fatalf("no members became ready: %+v", st)
	}
}
