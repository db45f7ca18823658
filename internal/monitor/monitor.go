// Package monitor implements Ganglia-style cluster monitoring: per-node
// metric agents (gmond), a frontend aggregator (gmetad) holding ring-buffer
// time series, and an HTTP/XML export resembling gmond's wire format. The
// ganglia roll is part of the XCBC build (Table 1).
package monitor

import (
	"encoding/xml"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/sim"
)

// Metric is one sample of one named quantity on one host.
type Metric struct {
	Host  string
	Name  string
	Value float64
	Units string
	At    sim.Time
}

// point is what a Series stores per sample. It holds no pointers, so the
// garbage collector never scans a series' backing array.
type point struct {
	At    sim.Time
	Value float64
}

// Series is a bounded time series — the RRD stand-in. Its backing array
// grows with the samples actually taken, never past the capacity, and
// only once it is full does a new sample overwrite the oldest. Host, name
// and units are held once per series, not per sample.
//
// It is safe for concurrent use: the aggregator hands out live Series
// pointers, so readers (HTTP handlers, alert evaluation) overlap with the
// poller's writes. All returns a defensive copy.
type Series struct {
	mu                sync.Mutex
	host, name, units string
	capacity          int
	points            []point // oldest-first until full, then a ring
	oldest            int     // index of the oldest point once full
}

// Add appends a sample, overwriting the oldest when full. A series'
// host, name and units are fixed by its first Add; later samples
// contribute only their time and value (the aggregator never mixes
// identities in one series).
func (s *Series) Add(m Metric) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := point{At: m.At, Value: m.Value}
	n := len(s.points)
	if n == s.capacity {
		s.points[s.oldest] = p
		s.oldest = (s.oldest + 1) % n
		return
	}
	if n == 0 {
		s.host, s.name, s.units = m.Host, m.Name, m.Units
	}
	if n == cap(s.points) {
		// Double, clipped: append's own growth would round the
		// allocation up past the retention cap.
		grown := make([]point, n, min(max(2*n, 1), s.capacity))
		copy(grown, s.points)
		s.points = grown
	}
	s.points = append(s.points, p)
}

// at returns the i-th oldest stored point. s.mu held.
func (s *Series) at(i int) point {
	return s.points[(s.oldest+i)%len(s.points)]
}

// metric re-attaches the series' identity to a stored point. s.mu held.
func (s *Series) metric(p point) Metric {
	return Metric{Host: s.host, Name: s.name, Value: p.Value, Units: s.units, At: p.At}
}

// All returns a defensive copy of the samples, oldest-first.
//
//detlint:reached support: monitor_test.go and pkg/xcbc/api's TestMonitoringPinnedToParent read the ring back through it to check what Add keeps
func (s *Series) All() []Metric {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Metric, len(s.points))
	for i := range out {
		out[i] = s.metric(s.at(i))
	}
	return out
}

// Latest returns the most recent sample, or false if empty.
func (s *Series) Latest() (Metric, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.points)
	if n == 0 {
		return Metric{}, false
	}
	return s.metric(s.at(n - 1)), true
}

// LoadFunc reports a node's current load fraction [0,1]; the scheduler
// integration supplies cores-busy/cores-total.
type LoadFunc func(node string) float64

// The standard metrics every gmond reports, in export order.
const (
	loadOne = iota
	powerWatts
	cpuNum
	numMetrics
)

var (
	metricNames = [numMetrics]string{"load_one", "power_watts", "cpu_num"}
	metricUnits = [numMetrics]string{"", "W", "CPUs"}
)

// hostSeries is one reporting host's slot: its name and its standard
// series, inline.
type hostSeries struct {
	name   string
	series [numMetrics]Series
}

// Aggregator is the gmetad analogue: it polls agents on a period and stores
// time series per host/metric. It is safe for concurrent use; the Series
// pointers it hands out are themselves synchronized, so a reader holding
// one observes later polls without re-fetching.
type Aggregator struct {
	mu       sync.Mutex
	cluster  *cluster.Cluster
	hosts    []*hostSeries // sorted by name; a host joins at its first sample
	spare    []hostSeries  // slots not yet handed out, see slot
	first    []point       // first points not yet handed out
	capacity int
	load     LoadFunc
	polls    int
}

// NewAggregator creates an aggregator with per-series ring capacity.
func NewAggregator(c *cluster.Cluster, capacity int, load LoadFunc) *Aggregator {
	return &Aggregator{cluster: c, capacity: max(capacity, 1), load: load}
}

// Poll samples every powered-on node once at the engine's current time:
// load, power draw, and core count. Powered-off nodes report no samples
// (their gmond is down), matching Ganglia's "host down" behaviour.
func (a *Aggregator) Poll(now sim.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.polls++
	for n := range a.cluster.All() {
		if n.Power() != cluster.PowerOn {
			continue
		}
		var values [numMetrics]float64
		if a.load != nil {
			values[loadOne] = a.load(n.Name)
		}
		values[powerWatts] = n.DrawWatts()
		values[cpuNum] = float64(n.Cores())
		h := a.slot(n.Name)
		for i := range h.series {
			h.series[i].Add(Metric{Host: n.Name, Name: metricNames[i], Value: values[i], Units: metricUnits[i], At: now})
		}
	}
}

// Start schedules periodic polling on the engine every interval, for count
// polls (count <= 0 polls forever while events remain).
func (a *Aggregator) Start(eng *sim.Engine, interval time.Duration, count int) {
	var tick func(*sim.Engine)
	remaining := count
	tick = func(e *sim.Engine) {
		a.Poll(e.Now())
		if remaining > 0 {
			remaining--
			if remaining == 0 {
				return
			}
		}
		e.After(interval, "gmetad-poll", tick)
	}
	eng.After(interval, "gmetad-poll", tick)
}

// find returns host's position in the sorted slot list and whether it is
// present. a.mu held.
func (a *Aggregator) find(host string) (int, bool) {
	return sort.Find(len(a.hosts), func(i int) int { return strings.Compare(host, a.hosts[i].name) })
}

// slot returns host's slot, inserting it in name order on first use. The
// first host to report sizes everything from the cluster's node count: one
// slab of slots, and one of first points that each series starts in (and
// leaves when it grows), so a cluster's first poll is a handful of
// allocations however many nodes it has. A slot never moves once handed
// out; hosts beyond the slab (nodes added since) get their own. a.mu held.
func (a *Aggregator) slot(host string) *hostSeries {
	i, ok := a.find(host)
	if ok {
		return a.hosts[i]
	}
	if a.hosts == nil {
		n := a.cluster.NodeCount()
		a.hosts = make([]*hostSeries, 0, n)
		a.spare = make([]hostSeries, n)
		a.first = make([]point, n*numMetrics)
	}
	var h *hostSeries
	if len(a.spare) > 0 {
		h, a.spare = &a.spare[0], a.spare[1:]
		for m := range h.series {
			h.series[m].points, a.first = a.first[:0:1], a.first[1:]
		}
	} else {
		h = new(hostSeries)
	}
	h.name = host
	for m := range h.series {
		h.series[m].capacity = a.capacity
	}
	a.hosts = slices.Insert(a.hosts, i, h)
	return h
}

// Polls returns how many poll rounds have run.
func (a *Aggregator) Polls() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.polls
}

// Series returns the stored series for one of a reporting host's standard
// metrics, or nil if the host has not reported or the metric is unknown.
func (a *Aggregator) Series(host, metric string) *Series {
	a.mu.Lock()
	defer a.mu.Unlock()
	i, ok := a.find(host)
	if !ok {
		return nil
	}
	for m, name := range metricNames {
		if name == metric {
			return &a.hosts[i].series[m]
		}
	}
	return nil
}

// Hosts returns hosts that have reported at least one sample, sorted. The
// list is maintained as hosts first report, not derived per call.
func (a *Aggregator) Hosts() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.hosts))
	for i, h := range a.hosts {
		out[i] = h.name
	}
	return out
}

// ClusterLoad returns the mean of the latest load_one across reporting
// hosts — the headline number on a Ganglia front page.
func (a *Aggregator) ClusterLoad() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.clusterLoad()
}

// clusterLoad is ClusterLoad with a.mu held.
func (a *Aggregator) clusterLoad() float64 {
	if len(a.hosts) == 0 {
		return 0
	}
	sum := 0.0
	for _, h := range a.hosts {
		m, _ := h.series[loadOne].Latest()
		sum += m.Value
	}
	return sum / float64(len(a.hosts))
}

// XML export, shaped like gmond's <GANGLIA_XML> document.

type xmlMetric struct {
	XMLName xml.Name `xml:"METRIC"`
	Name    string   `xml:"NAME,attr"`
	Val     float64  `xml:"VAL,attr"`
	Units   string   `xml:"UNITS,attr"`
}

type xmlHost struct {
	XMLName xml.Name    `xml:"HOST"`
	Name    string      `xml:"NAME,attr"`
	Metrics []xmlMetric `xml:"METRIC"`
}

type xmlGanglia struct {
	XMLName xml.Name  `xml:"GANGLIA_XML"`
	Source  string    `xml:"SOURCE,attr"`
	Hosts   []xmlHost `xml:"HOST"`
}

// ExportXML renders the latest sample of every host metric as Ganglia-style
// XML.
func (a *Aggregator) ExportXML() ([]byte, error) {
	doc := xmlGanglia{Source: a.cluster.Name}
	a.mu.Lock()
	for _, h := range a.hosts {
		xh := xmlHost{Name: h.name}
		for i := range h.series {
			if m, ok := h.series[i].Latest(); ok {
				xh.Metrics = append(xh.Metrics, xmlMetric{Name: m.Name, Val: m.Value, Units: m.Units})
			}
		}
		doc.Hosts = append(doc.Hosts, xh)
	}
	a.mu.Unlock()
	return xml.MarshalIndent(doc, "", "  ")
}

// ServeHTTP exposes the XML document, as gmetad's interactive port does.
func (a *Aggregator) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	data, err := a.ExportXML()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/xml")
	w.Write(data)
}

// Report renders a plain-text cluster status summary.
func (a *Aggregator) Report() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := fmt.Sprintf("cluster %s: %d hosts reporting, mean load %.2f\n",
		a.cluster.Name, len(a.hosts), a.clusterLoad())
	for _, h := range a.hosts {
		load, _ := h.series[loadOne].Latest()
		watts, _ := h.series[powerWatts].Latest()
		out += fmt.Sprintf("  %-16s load %.2f  %6.1f W\n", h.name, load.Value, watts.Value)
	}
	return out
}
