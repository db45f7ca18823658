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

// hostRows builds one slot the way the aggregator fills it: one row per
// value, at times 1, 2, ..., with the value as load_one.
func hostRows(capacity int, values ...float64) *hostSeries {
	h := &hostSeries{}
	for i, v := range values {
		h.add(row{At: sim.Time(i + 1), Values: [numMetrics]float64{v}}, capacity)
	}
	return h
}

// loads reads a slot's load_one column back, oldest-first.
func loads(h *hostSeries) []float64 {
	out := make([]float64, len(h.rows))
	for i := range out {
		out[i] = h.at(i).Values[loadOne]
	}
	return out
}

func TestSeriesRing(t *testing.T) {
	h := hostRows(3, 1, 2, 3, 4, 5)
	if got := loads(h); !slices.Equal(got, []float64{3, 4, 5}) {
		t.Fatalf("rows = %v", got)
	}
	if r := h.latest(); r.Values[loadOne] != 5 || r.At != 5 {
		t.Fatalf("latest = %+v", r)
	}
}

func TestSeriesPartial(t *testing.T) {
	h := hostRows(10, 1, 2)
	if got := loads(h); !slices.Equal(got, []float64{1, 2}) {
		t.Fatalf("partial ring: %v", got)
	}
}

// samplesByHost keys what Latest reports by host.
func samplesByHost(agg *Aggregator) (map[string]HostSample, int, float64) {
	samples, polls, load := agg.Latest(nil)
	out := make(map[string]HostSample)
	for _, s := range samples {
		out[s.Host] = s
	}
	return out, polls, load
}

// hostNames lists the reporting hosts in the order Latest reports them.
func hostNames(agg *Aggregator) []string {
	samples, _, _ := agg.Latest(nil)
	var out []string
	for _, s := range samples {
		out = append(out, s.Host)
	}
	return out
}

func TestAggregatorPollsPoweredNodesOnly(t *testing.T) {
	c := cluster.NewLimulusHPC200()
	c.Frontend.SetPower(cluster.PowerOn)
	c.Computes[0].SetPower(cluster.PowerOn)
	// n2, n3 stay off.
	agg := NewAggregator(c, 16, func(int) float64 { return 0.5 })
	agg.Poll(0)
	hosts, polls, load := samplesByHost(agg)
	if len(hosts) != 2 {
		t.Fatalf("hosts = %v", hosts)
	}
	if _, ok := hosts["n2"]; ok || agg.Samples("n2", "load_one") != nil {
		t.Fatal("powered-off node should not report")
	}
	if s, ok := hosts["n1"]; !ok || s.Load != 0.5 || s.Cores != c.Computes[0].Cores() || s.PowerWatts != c.Computes[0].DrawWatts() {
		t.Fatalf("n1 = %+v, %v", s, ok)
	}
	if load != 0.5 {
		t.Fatalf("cluster load = %v", load)
	}
	if polls != 1 {
		t.Fatalf("polls = %d", polls)
	}
}

func TestAggregatorPeriodicPolling(t *testing.T) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	eng := sim.NewEngine()
	agg := NewAggregator(c, 100, nil)
	agg.Start(eng, 15*time.Second, 4)
	eng.Run()
	if _, polls, _ := agg.Latest(nil); polls != 4 {
		t.Fatalf("polls = %d, want 4", polls)
	}
	s := agg.Samples("littlefe-head", "power_watts")
	if len(s) != 4 {
		t.Fatalf("head power samples missing or wrong length: %v", s)
	}
	if m := s[3]; m.At != sim.Time(60*time.Second) || m.Units != "W" || m.Value <= 0 {
		t.Fatalf("last sample %+v", m)
	}
}

func TestExportXMLAndHTTP(t *testing.T) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	agg := NewAggregator(c, 4, func(int) float64 { return 1.0 })
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
	agg := NewAggregator(c, 4, func(int) float64 { return 0.25 })
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
	if hosts, _, load := samplesByHost(agg); len(hosts) != 0 || load != 0 {
		t.Fatalf("no hosts -> zero load, got %v over %v", load, hosts)
	}
}

// TestSeriesMatchesKeepLastModel checks the grow-then-wrap row storage
// against the plainest possible reference: a slice that keeps the last N
// samples. After every poll, up to three times around the ring, every
// accessor must agree with the model, and the backing array must never be
// allocated past the retention capacity.
func TestSeriesMatchesKeepLastModel(t *testing.T) {
	c := cluster.NewLittleFe()
	c.Frontend.SetPower(cluster.PowerOn)
	host := c.Frontend.Name
	for _, capacity := range []int{1, 2, 3, 7, 1024} {
		i := 0
		// Values whose sum depends on the order of addition.
		agg := NewAggregator(c, capacity, func(int) float64 { return 1 / float64(i) })
		var model []Metric
		check := func() {
			t.Helper()
			if got := agg.Samples(host, "load_one"); !slices.Equal(got, model) {
				t.Fatalf("cap %d after %d polls: Samples = %v, model %v", capacity, i, got, model)
			}
			hosts, _, load := samplesByHost(agg)
			latest, ok := hosts[host]
			if ok != (len(model) > 0) || (ok && (latest.Load != model[len(model)-1].Value || load != latest.Load)) {
				t.Fatalf("cap %d after %d polls: Latest = %+v, %v, load %v", capacity, i, latest, ok, load)
			}
			if ok && cap(agg.hosts[0].rows) > capacity {
				t.Fatalf("cap %d after %d polls: backing array holds %d", capacity, i, cap(agg.hosts[0].rows))
			}
		}
		check()
		for i = 1; i <= 3*capacity; i++ {
			agg.Poll(sim.Time(i))
			model = append(model, Metric{Host: host, Name: "load_one", Value: 1 / float64(i), At: sim.Time(i)})
			if len(model) > capacity {
				model = model[1:]
			}
			check()
		}
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
	if agg.Samples(late.Name, "load_one") != nil || slices.Contains(hostNames(agg), late.Name) {
		t.Fatalf("%s reported while powered off: %v", late.Name, hostNames(agg))
	}
	late.SetPower(cluster.PowerOn)
	agg.Poll(1)
	hosts := hostNames(agg)
	if len(hosts) != len(c.Nodes()) || !slices.IsSorted(hosts) {
		t.Fatalf("hosts = %v", hosts)
	}
	if s := agg.Samples(late.Name, "cpu_num"); len(s) != 1 {
		t.Fatalf("%s should hold one sample", late.Name)
	}
	if agg.Samples(late.Name, "no_such_metric") != nil {
		t.Fatal("unknown metric should have no samples")
	}
}

// TestPollAllocations pins what PR 17, the fleet diet and the row layout
// won: a cluster's first poll sizes every host's slot and first row from
// the node count (a handful of slabs, not one object per host), and a warm
// poll allocates nothing at all.
func TestPollAllocations(t *testing.T) {
	c := cluster.NewLittleFe()
	if err := cluster.ResizeComputes(c, 4); err != nil { // the campus-100 member: 5 nodes
		t.Fatal(err)
	}
	c.PowerOnAll()
	if n := testing.AllocsPerRun(50, func() { NewAggregator(c, 1024, nil).Poll(0) }); n > 4 {
		t.Errorf("first poll of a %d-node cluster allocates %v times, want at most 4", c.NodeCount(), n)
	}
	agg := NewAggregator(c, 4, func(int) float64 { return 0.5 })
	for i := 0; i < 4; i++ {
		agg.Poll(sim.Time(i)) // fill the rings
	}
	now := sim.Time(4)
	if n := testing.AllocsPerRun(50, func() { agg.Poll(now); now++ }); n != 0 {
		t.Errorf("a warm poll allocates %v times, want 0", n)
	}
}

// TestSeriesPointersSurviveLateHosts: slots come out of one slab, so a
// slot handed out before a powered-off host first reports must still be
// the live slot afterwards, and a node added after the first poll — past
// the slab — must get a slot of its own.
func TestSeriesPointersSurviveLateHosts(t *testing.T) {
	c := cluster.NewLittleFe()
	c.PowerOnAll()
	late := c.Computes[0] // sorts before every other compute: forces an insert
	late.SetPower(cluster.PowerOff)
	agg := NewAggregator(c, 8, nil)
	agg.Poll(1)
	slotOf := func(host string) *hostSeries {
		if i, ok := agg.find(host); ok {
			return agg.hosts[i]
		}
		return nil
	}
	held, head := slotOf("compute-0-5"), slotOf("littlefe-head")
	if held == nil || head == nil || slotOf(late.Name) != nil {
		t.Fatal("unexpected slots before the late host reports")
	}
	late.SetPower(cluster.PowerOn)
	extra := cluster.NewNode("compute-0-0", cluster.RoleCompute, &cluster.CeleronG1840, 1, 8).
		AddNIC(cluster.NIC{Name: "eth0", Network: "private"})
	extra.SetPower(cluster.PowerOn)
	c.AddCompute(extra)
	for now := sim.Time(2); now < 6; now++ {
		agg.Poll(now)
	}
	if got := slotOf("compute-0-5"); got != held || len(held.rows) != 5 {
		t.Errorf("slot moved or stopped: %p, held %p with %d rows", got, held, len(held.rows))
	}
	if len(head.rows) != 5 {
		t.Errorf("head holds %d rows, want 5", len(head.rows))
	}
	for _, host := range []string{late.Name, extra.Name} {
		if n := len(agg.Samples(host, "load_one")); n != 4 {
			t.Errorf("%s: late host holds %d samples, want 4", host, n)
		}
	}
	var want []string
	for n := range c.All() {
		want = append(want, n.Name)
	}
	slices.Sort(want)
	if got := hostNames(agg); !slices.Equal(got, want) {
		t.Errorf("hosts = %v, want %v", got, want)
	}
}
