package monitor

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

// TestConcurrentPollAndRead hammers every read of the aggregator while
// polls keep writing — the shape HTTP metrics handlers produce now that
// monitoring is reachable through /api/v1/clusters/{id}/metrics. Run with
// -race: every read goes through the aggregator's one lock.
func TestConcurrentPollAndRead(t *testing.T) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	agg := NewAggregator(c, 64, func(int) float64 { return 0.5 })
	am := NewAlertManager(agg, Rule{Name: "hot", Metric: "load_one", Threshold: 0.4})

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: polls at advancing virtual times.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 500; i++ {
			now := sim.Time(time.Duration(i) * time.Minute)
			agg.Poll(now)
			am.Evaluate(now, sim.Time(time.Minute))
		}
	}()
	// Reader of one host's retained samples across polls.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			agg.Samples("compute-0-1", "load_one")
		}
	}()
	// Readers over the aggregator surface, including the HTTP export.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				agg.Latest(nil)
				_ = agg.Report()
				am.Active()
				am.Log()
				rec := httptest.NewRecorder()
				agg.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
			}
		}()
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("goroutines did not finish")
	}

	if _, polls, _ := agg.Latest(nil); polls != 500 {
		t.Fatalf("polls = %d, want 500", polls)
	}
	if len(am.Active()) == 0 {
		t.Fatal("the hot rule should be firing at load 0.5")
	}
}
