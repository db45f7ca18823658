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

// LoadFunc reports a node's current load fraction [0,1], given the node's
// position in Cluster.All (the frontend first); the scheduler integration
// supplies cores-busy/cores-total.
type LoadFunc func(node int) float64

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

// metricIndex returns the position of a standard metric in a row, or -1.
func metricIndex(name string) int {
	for m, n := range metricNames {
		if n == name {
			return m
		}
	}
	return -1
}

// row is one poll of one host: every standard metric at one instant. It
// holds no pointers, so the garbage collector never scans a host's rows.
type row struct {
	At     sim.Time
	Values [numMetrics]float64
}

// hostSeries is one reporting host's slot: its name and its bounded run of
// rows — the RRD stand-in. The rows grow with the polls actually taken,
// never past the aggregator's capacity, and only once they are full does a
// new row overwrite the oldest.
type hostSeries struct {
	name   string
	rows   []row // oldest-first until full, then a ring
	oldest int   // index of the oldest row once full
}

// add appends a row, overwriting the oldest once capacity rows are held.
func (h *hostSeries) add(r row, capacity int) {
	n := len(h.rows)
	if n == capacity {
		h.rows[h.oldest] = r
		h.oldest = (h.oldest + 1) % n
		return
	}
	if n == cap(h.rows) {
		// Double, clipped: append's own growth would round the allocation
		// up past the retention cap.
		grown := make([]row, n, min(max(2*n, 1), capacity))
		copy(grown, h.rows)
		h.rows = grown
	}
	h.rows = append(h.rows, r)
}

// at returns the i-th oldest stored row.
func (h *hostSeries) at(i int) row {
	return h.rows[(h.oldest+i)%len(h.rows)]
}

// latest returns the most recent row; a slot always holds at least one.
func (h *hostSeries) latest() row {
	return h.at(len(h.rows) - 1)
}

// Aggregator is the gmetad analogue: it polls agents on a period and stores
// one row per poll per host. It is safe for concurrent use; its one mutex
// guards every slot, and no reader holds a slot outside it.
type Aggregator struct {
	mu       sync.Mutex
	cluster  *cluster.Cluster
	hosts    []*hostSeries // sorted by name; a host joins at its first sample
	spare    []hostSeries  // slots not yet handed out, see slot
	first    []row         // first rows not yet handed out
	capacity int
	load     LoadFunc
	polls    int
}

// NewAggregator creates an aggregator retaining capacity rows per host.
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
	i := -1
	for n := range a.cluster.All() {
		if i++; n.Power() != cluster.PowerOn {
			continue
		}
		r := row{At: now}
		if a.load != nil {
			r.Values[loadOne] = a.load(i)
		}
		r.Values[powerWatts] = n.DrawWatts()
		r.Values[cpuNum] = float64(n.Cores())
		a.slot(n.Name).add(r, a.capacity)
	}
}

// Start schedules periodic polling on the engine every interval, for count
// polls. With count <= 0 the tick re-arms forever, so the engine never runs
// out of events and Engine.Run never returns: drive it with RunUntil.
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
// slab of slots, and one of first rows that each slot starts in (and
// leaves when it grows), so a cluster's first poll is a handful of
// allocations however many nodes it has. Hosts beyond the slab (nodes
// added since) get their own slot. a.mu held.
func (a *Aggregator) slot(host string) *hostSeries {
	i, ok := a.find(host)
	if ok {
		return a.hosts[i]
	}
	if a.hosts == nil {
		n := a.cluster.NodeCount()
		a.hosts = make([]*hostSeries, 0, n)
		a.spare = make([]hostSeries, n)
		a.first = make([]row, n)
	}
	var h *hostSeries
	if len(a.spare) > 0 {
		h, a.spare = &a.spare[0], a.spare[1:]
		h.rows, a.first = a.first[:0:1], a.first[1:]
	} else {
		h = new(hostSeries)
	}
	h.name = host
	a.hosts = slices.Insert(a.hosts, i, h)
	return h
}

// HostSample is one reporting host's latest poll, as Latest reports it.
type HostSample struct {
	Host       string
	Load       float64 // fraction of cores busy, [0,1]
	PowerWatts float64
	Cores      int
}

// Latest appends each reporting host's latest sample to dst in name order,
// all read under one lock, and returns them with how many poll rounds have
// run and the mean latest load_one across reporting hosts — the headline
// number on a Ganglia front page.
func (a *Aggregator) Latest(dst []HostSample) (hosts []HostSample, polls int, load float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.latest(func(host string, r row) {
		dst = append(dst, HostSample{Host: host, Load: r.Values[loadOne], PowerWatts: r.Values[powerWatts], Cores: int(r.Values[cpuNum])})
	})
	return dst, a.polls, a.clusterLoad()
}

// latest calls f with each reporting host's latest row, in name order.
// a.mu held.
func (a *Aggregator) latest(f func(host string, r row)) {
	for _, h := range a.hosts {
		f(h.name, h.latest())
	}
}

// clusterLoad is the mean latest load_one across reporting hosts. a.mu held.
func (a *Aggregator) clusterLoad() float64 {
	if len(a.hosts) == 0 {
		return 0
	}
	sum := 0.0
	for _, h := range a.hosts {
		sum += h.latest().Values[loadOne]
	}
	return sum / float64(len(a.hosts))
}

// Metric is one retained sample of one standard metric on one host, with
// its identity re-attached, as Samples returns it.
type Metric struct {
	//detlint:reached support: pkg/xcbc/api's TestMonitoringPinnedToParent prints every retained sample with %+v
	Host, Name string
	//detlint:reached support: TestMonitoringPinnedToParent prints and averages it
	Value float64
	//detlint:reached support: TestMonitoringPinnedToParent prints it
	Units string
	//detlint:reached support: TestMonitoringPinnedToParent prints it
	At sim.Time
}

// Samples returns host's retained samples of one standard metric,
// oldest-first, or nil if the host has not reported or the metric is
// unknown.
//
//detlint:reached support: monitor_test.go and pkg/xcbc/api's TestMonitoringPinnedToParent read the retained rows back through it
func (a *Aggregator) Samples(host, metric string) []Metric {
	m := metricIndex(metric)
	a.mu.Lock()
	defer a.mu.Unlock()
	i, ok := a.find(host)
	if !ok || m < 0 {
		return nil
	}
	h := a.hosts[i]
	out := make([]Metric, len(h.rows))
	for j := range out {
		r := h.at(j)
		out[j] = Metric{Host: host, Name: metricNames[m], Value: r.Values[m], Units: metricUnits[m], At: r.At}
	}
	return out
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
	a.latest(func(host string, r row) {
		xh := xmlHost{Name: host, Metrics: make([]xmlMetric, numMetrics)}
		for m := range xh.Metrics {
			xh.Metrics[m] = xmlMetric{Name: metricNames[m], Val: r.Values[m], Units: metricUnits[m]}
		}
		doc.Hosts = append(doc.Hosts, xh)
	})
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
	a.latest(func(host string, r row) {
		out += fmt.Sprintf("  %-16s load %.2f  %6.1f W\n", host, r.Values[loadOne], r.Values[powerWatts])
	})
	return out
}
