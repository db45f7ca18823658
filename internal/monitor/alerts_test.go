package monitor

import (
	"strings"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

const pollIvl = sim.Time(time.Minute)

func pollAndEval(agg *Aggregator, am *AlertManager, at sim.Time) {
	agg.Poll(at)
	am.Evaluate(at, pollIvl)
}

func TestThresholdRaiseAndClear(t *testing.T) {
	c := cluster.NewLimulusHPC200()
	c.PowerOnAll()
	load := 0.2
	agg := NewAggregator(c, 16, func(int) float64 { return load })
	am := NewAlertManager(agg, Rule{Name: "high-load", Metric: "load_one", Threshold: 0.9})

	pollAndEval(agg, am, pollIvl)
	if len(am.Active()) != 0 {
		t.Fatalf("no alerts expected: %v", am.Active())
	}
	load = 1.0
	pollAndEval(agg, am, 2*pollIvl)
	active := am.Active()
	if len(active) != 4 { // every node over threshold
		t.Fatalf("active = %v", active)
	}
	if !strings.Contains(active[0], "high-load") {
		t.Fatalf("active = %v", active)
	}
	// No duplicate raise on the next poll.
	pollAndEval(agg, am, 3*pollIvl)
	raises := 0
	for _, a := range am.Log() {
		if a.Firing && a.Rule == "high-load" {
			raises++
		}
	}
	if raises != 4 {
		t.Fatalf("raises = %d, want 4 (no duplicates)", raises)
	}
	// Clear.
	load = 0.1
	pollAndEval(agg, am, 4*pollIvl)
	if len(am.Active()) != 0 {
		t.Fatalf("alerts should clear: %v", am.Active())
	}
	cleared := 0
	for _, a := range am.Log() {
		if !a.Firing && a.Rule == "high-load" {
			cleared++
		}
	}
	if cleared != 4 {
		t.Fatalf("cleared = %d", cleared)
	}
}

func TestHostDownDetection(t *testing.T) {
	c := cluster.NewLimulusHPC200()
	c.PowerOnAll()
	agg := NewAggregator(c, 16, nil)
	am := NewAlertManager(agg)
	pollAndEval(agg, am, pollIvl)
	// n1 dies; it stops reporting but others continue.
	n1, _ := c.Lookup("n1")
	n1.SetPower(cluster.PowerOff)
	for i := 2; i <= 5; i++ {
		pollAndEval(agg, am, sim.Time(i)*pollIvl)
	}
	active := am.Active()
	if len(active) != 1 || active[0] != "n1/host-down" {
		t.Fatalf("active = %v", active)
	}
	// It comes back.
	n1.SetPower(cluster.PowerOn)
	pollAndEval(agg, am, 6*pollIvl)
	if len(am.Active()) != 0 {
		t.Fatalf("host-down should clear: %v", am.Active())
	}
	var raised, cleared bool
	for _, a := range am.Log() {
		if a.Rule == "host-down" && a.Host == "n1" {
			if a.Firing {
				raised = true
			} else {
				cleared = true
			}
		}
		if a.String() == "" {
			t.Fatal("alert String")
		}
	}
	if !raised || !cleared {
		t.Fatalf("transitions: raised=%v cleared=%v", raised, cleared)
	}
}

func TestRuleOnMissingMetricIgnored(t *testing.T) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	agg := NewAggregator(c, 4, nil)
	am := NewAlertManager(agg, Rule{Name: "ghost", Metric: "nonexistent", Threshold: 1})
	pollAndEval(agg, am, pollIvl)
	if len(am.Active()) != 0 {
		t.Fatal("rule on missing metric must not fire")
	}
}

// TestEvaluateAllocations: an evaluation that raises and clears nothing
// reads each host's latest row under the aggregator's lock and allocates
// nothing — no host list, no per-host lookups, no freshness map.
func TestEvaluateAllocations(t *testing.T) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	agg := NewAggregator(c, 16, func(int) float64 { return 0.5 })
	am := NewAlertManager(agg, Rule{Name: "high-load", Metric: "load_one", Threshold: 0.9})
	pollAndEval(agg, am, pollIvl)
	if n := testing.AllocsPerRun(50, func() { am.Evaluate(pollIvl, pollIvl) }); n != 0 {
		t.Errorf("an evaluation with no transition allocates %v times, want 0", n)
	}
	if len(am.Log()) != 0 {
		t.Fatalf("a healthy cluster logged %v", am.Log())
	}
}
