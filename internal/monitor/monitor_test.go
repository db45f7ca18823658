package monitor

import (
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

func TestSeriesRing(t *testing.T) {
	s := &Series{capacity: 3}
	if _, ok := s.Latest(); ok {
		t.Fatal("empty series should have no latest")
	}
	for i := 1; i <= 5; i++ {
		s.Add(Metric{Name: "x", Value: float64(i)})
	}
	if len(s.All()) != 3 {
		t.Fatalf("Len = %d", len(s.All()))
	}
	all := s.All()
	if all[0].Value != 3 || all[2].Value != 5 {
		t.Fatalf("All = %v", all)
	}
	if m, _ := s.Latest(); m.Value != 5 {
		t.Fatalf("Latest = %v", m)
	}
}

func TestSeriesPartial(t *testing.T) {
	s := &Series{capacity: 10}
	s.Add(Metric{Value: 1})
	s.Add(Metric{Value: 2})
	if got := s.All(); len(got) != 2 || got[0].Value != 1 || got[1].Value != 2 {
		t.Fatalf("partial ring: %v", got)
	}
}

func TestAggregatorPollsPoweredNodesOnly(t *testing.T) {
	c := cluster.NewLimulusHPC200()
	c.Frontend.SetPower(cluster.PowerOn)
	c.Computes[0].SetPower(cluster.PowerOn)
	// n2, n3 stay off.
	agg := NewAggregator(c, 16, func(string) float64 { return 0.5 })
	agg.Poll(0)
	hosts := agg.Hosts()
	if len(hosts) != 2 {
		t.Fatalf("Hosts = %v", hosts)
	}
	if s := agg.Series("n2", "load_one"); s != nil {
		t.Fatal("powered-off node should not report")
	}
	if s := agg.Series("n1", "load_one"); s == nil {
		t.Fatal("n1 should report")
	} else if m, _ := s.Latest(); m.Value != 0.5 {
		t.Fatalf("load = %v", m.Value)
	}
	if got := agg.ClusterLoad(); got != 0.5 {
		t.Fatalf("ClusterLoad = %v", got)
	}
	if agg.Polls() != 1 {
		t.Fatalf("Polls = %d", agg.Polls())
	}
}

func TestAggregatorPeriodicPolling(t *testing.T) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	eng := sim.NewEngine()
	agg := NewAggregator(c, 100, nil)
	agg.Start(eng, 15*time.Second, 4)
	eng.Run()
	if agg.Polls() != 4 {
		t.Fatalf("Polls = %d, want 4", agg.Polls())
	}
	s := agg.Series("littlefe-head", "power_watts")
	if s == nil || len(s.All()) != 4 {
		t.Fatalf("head power series missing or wrong length")
	}
	if m, _ := s.Latest(); m.At != sim.Time(60*time.Second) {
		t.Fatalf("last sample at %v", m.At)
	}
}

func TestExportXMLAndHTTP(t *testing.T) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	agg := NewAggregator(c, 4, func(string) float64 { return 1.0 })
	agg.Poll(0)
	data, err := agg.ExportXML()
	if err != nil {
		t.Fatal(err)
	}
	xml := string(data)
	for _, want := range []string{"GANGLIA_XML", `SOURCE="LittleFe"`, `NAME="littlefe-head"`, `NAME="load_one"`} {
		if !strings.Contains(xml, want) {
			t.Errorf("XML missing %q:\n%s", want, xml)
		}
	}
	ts := httptest.NewServer(agg)
	defer ts.Close()
	res, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 || !strings.Contains(res.Header.Get("Content-Type"), "xml") {
		t.Fatalf("HTTP export: %d %s", res.StatusCode, res.Header.Get("Content-Type"))
	}
}

func TestReport(t *testing.T) {
	c := cluster.NewLimulusHPC200()
	c.PowerOnAll()
	agg := NewAggregator(c, 4, func(string) float64 { return 0.25 })
	agg.Poll(0)
	rep := agg.Report()
	if !strings.Contains(rep, "4 hosts reporting") || !strings.Contains(rep, "limulus") {
		t.Fatalf("report:\n%s", rep)
	}
}

func TestClusterLoadEmpty(t *testing.T) {
	c := cluster.NewLittleFe() // all off
	agg := NewAggregator(c, 4, nil)
	agg.Poll(0)
	if agg.ClusterLoad() != 0 {
		t.Fatal("no hosts -> zero load")
	}
}

// TestSeriesMatchesKeepLastModel checks the grow-then-wrap storage against
// the plainest possible reference: a slice that keeps the last N samples.
// After every Add, up to three times around the ring, every accessor must
// agree with the model, and the backing array must never be allocated
// past the retention capacity.
func TestSeriesMatchesKeepLastModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 1024} {
		s := &Series{capacity: capacity}
		var model []Metric
		check := func(adds int) {
			t.Helper()
			if all := s.All(); !slices.Equal(all, model) {
				t.Fatalf("cap %d after %d adds: All = %v, model %v", capacity, adds, all, model)
			}
			latest, ok := s.Latest()
			if ok != (len(model) > 0) || (ok && latest != model[len(model)-1]) {
				t.Fatalf("cap %d after %d adds: Latest = %v, %v", capacity, adds, latest, ok)
			}
			if cap(s.points) > capacity {
				t.Fatalf("cap %d after %d adds: backing array holds %d", capacity, adds, cap(s.points))
			}
		}
		check(0)
		for i := 1; i <= 3*capacity; i++ {
			// Values whose sum depends on the order of addition.
			m := Metric{Host: "n1", Name: "load_one", Units: "u", Value: 1 / float64(i), At: sim.Time(i)}
			s.Add(m)
			model = append(model, m)
			if len(model) > capacity {
				model = model[1:]
			}
			check(i)
		}
	}
}

// TestSeriesIdentityFixedByFirstAdd states the contract the per-series
// identity relies on: host, name and units come from the first sample.
func TestSeriesIdentityFixedByFirstAdd(t *testing.T) {
	s := &Series{capacity: 2}
	s.Add(Metric{Host: "n1", Name: "load_one", Units: "u", Value: 1, At: 1})
	s.Add(Metric{Host: "other", Name: "other", Units: "other", Value: 2, At: 2})
	s.Add(Metric{Value: 3, At: 3})
	want := []Metric{
		{Host: "n1", Name: "load_one", Units: "u", Value: 2, At: 2},
		{Host: "n1", Name: "load_one", Units: "u", Value: 3, At: 3},
	}
	if got := s.All(); !slices.Equal(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
}

// TestAggregatorHostsSortedAsTheyJoin covers the maintained host list:
// hosts join in poll order, which is not name order, and a host powered on
// later is inserted in place.
func TestAggregatorHostsSortedAsTheyJoin(t *testing.T) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	late := c.Computes[1]
	late.SetPower(cluster.PowerOff)
	agg := NewAggregator(c, 4, nil)
	agg.Poll(0)
	if agg.Series(late.Name, "load_one") != nil || slices.Contains(agg.Hosts(), late.Name) {
		t.Fatalf("%s reported while powered off: %v", late.Name, agg.Hosts())
	}
	late.SetPower(cluster.PowerOn)
	agg.Poll(1)
	hosts := agg.Hosts()
	if len(hosts) != len(c.Nodes()) || !slices.IsSorted(hosts) {
		t.Fatalf("Hosts = %v", hosts)
	}
	if s := agg.Series(late.Name, "cpu_num"); s == nil || len(s.All()) != 1 {
		t.Fatalf("%s should hold one sample", late.Name)
	}
	if agg.Series(late.Name, "no_such_metric") != nil {
		t.Fatal("unknown metric should have no series")
	}
}

// TestPollAllocations pins what PR 17 and the fleet diet won: a cluster's
// first poll sizes every host's slot and first point from the node count
// (a handful of slabs, not one object per host and per series), and a warm
// poll allocates nothing at all.
func TestPollAllocations(t *testing.T) {
	c := cluster.NewLittleFe()
	if err := cluster.ResizeComputes(c, 4); err != nil { // the campus-100 member: 5 nodes
		t.Fatal(err)
	}
	c.PowerOnAll()
	if n := testing.AllocsPerRun(50, func() { NewAggregator(c, 1024, nil).Poll(0) }); n > 8 {
		t.Errorf("first poll of a %d-node cluster allocates %v times, want at most 8", c.NodeCount(), n)
	}
	agg := NewAggregator(c, 4, func(string) float64 { return 0.5 })
	for i := 0; i < 4; i++ {
		agg.Poll(sim.Time(i)) // fill the rings
	}
	now := sim.Time(4)
	if n := testing.AllocsPerRun(50, func() { agg.Poll(now); now++ }); n != 0 {
		t.Errorf("a warm poll allocates %v times, want 0", n)
	}
}

// TestSeriesPointersSurviveLateHosts: slots come out of one slab, so a
// *Series handed out before a powered-off host first reports must still be
// the live series afterwards, and a node added after the first poll — past
// the slab — must get a slot of its own.
func TestSeriesPointersSurviveLateHosts(t *testing.T) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	late := c.Computes[0] // sorts before every other compute: forces an insert
	late.SetPower(cluster.PowerOff)
	agg := NewAggregator(c, 8, nil)
	agg.Poll(1)
	held := agg.Series("compute-0-5", "cpu_num")
	head := agg.Series("littlefe-head", "power_watts")
	if held == nil || head == nil || agg.Series(late.Name, "cpu_num") != nil {
		t.Fatal("unexpected series before the late host reports")
	}
	late.SetPower(cluster.PowerOn)
	extra := cluster.NewNode("compute-0-0", cluster.RoleCompute, cluster.CeleronG1840, 1, 8).
		AddNIC(cluster.NIC{Name: "eth0", Network: "private"})
	extra.SetPower(cluster.PowerOn)
	c.AddCompute(extra)
	for now := sim.Time(2); now < 6; now++ {
		agg.Poll(now)
	}
	if got := agg.Series("compute-0-5", "cpu_num"); got != held || len(held.All()) != 5 {
		t.Errorf("series moved or stopped: %p len %d, held %p len %d", got, len(got.All()), held, len(held.All()))
	}
	if len(head.All()) != 5 {
		t.Errorf("head series holds %d samples, want 5", len(head.All()))
	}
	for _, host := range []string{late.Name, extra.Name} {
		if s := agg.Series(host, "load_one"); s == nil || len(s.All()) != 4 {
			t.Errorf("%s: late host has no series or the wrong length", host)
		}
	}
	var want []string
	for n := range c.All() {
		want = append(want, n.Name)
	}
	slices.Sort(want)
	if got := agg.Hosts(); !slices.Equal(got, want) {
		t.Errorf("hosts = %v, want %v", got, want)
	}
}
