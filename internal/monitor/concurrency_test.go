package monitor

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

// TestConcurrentPollAndRead hammers the aggregator and the live Series
// pointers it hands out while polls keep writing — the shape HTTP metrics
// handlers produce now that monitoring is reachable through
// /api/v1/clusters/{id}/metrics. Run with -race: Series used to be an
// unguarded ring, mutated under the aggregator's lock but read outside it.
func TestConcurrentPollAndRead(t *testing.T) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	agg := NewAggregator(c, 64, func(string) float64 { return 0.5 })
	am := NewAlertManager(agg)
	am.AddRule(Rule{Name: "hot", Metric: "load_one", Cond: Above, Threshold: 0.4})

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
	// Reader holding a live Series pointer across polls.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var s *Series
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s == nil {
				s = agg.Series("compute-0-1", "load_one")
				continue
			}
			s.All()
			s.Latest()
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
				agg.Hosts()
				agg.ClusterLoad()
				agg.Polls()
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

	if agg.Polls() != 500 {
		t.Fatalf("polls = %d, want 500", agg.Polls())
	}
	if len(am.Active()) == 0 {
		t.Fatal("the hot rule should be firing at load 0.5")
	}
}
