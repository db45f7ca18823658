package cluster

import (
	"fmt"
	"iter"
)

// Network is a cluster interconnect with a simple latency/bandwidth cost
// model, used by the MPI runtime and the HPL efficiency model.
type Network struct {
	Type      string  // "GigE", "10GigE", "IB-QDR"
	GBits     float64 // per-link bandwidth
	LatencyUs float64 // one-way small-message latency
}

// Common interconnects. Both luggable clusters use gigabit Ethernet.
var (
	GigabitEthernet = Network{Type: "GigE", GBits: 1.0, LatencyUs: 50}
	TenGigEthernet  = Network{Type: "10GigE", GBits: 10.0, LatencyUs: 20}
	InfinibandQDR   = Network{Type: "IB-QDR", GBits: 32.0, LatencyUs: 1.5}
)

// BytesPerSec returns the link bandwidth in bytes/second.
func (n Network) BytesPerSec() float64 { return n.GBits * 1e9 / 8 }

// Cluster is a frontend plus compute nodes on a private network — the shape
// Rocks manages and the shape both LittleFe and Limulus take.
type Cluster struct {
	Name     string
	Site     string
	Frontend *Node
	Computes []*Node
	Network  Network
	CostUSD  float64
}

// New creates a cluster with the given frontend and network.
func New(name, site string, frontend *Node, network Network) *Cluster {
	return &Cluster{Name: name, Site: site, Frontend: frontend, Network: network}
}

// AddCompute appends compute nodes.
func (c *Cluster) AddCompute(nodes ...*Node) *Cluster {
	c.Computes = append(c.Computes, nodes...)
	return c
}

// Clone returns an independent copy of c — the way a fleet stamps its
// members from one template. Every node of the copy lives in one slab,
// powered off and bare metal, and points at its template node's hardware
// description instead of copying it (see Hardware), so a clone costs three
// allocations however many nodes it has.
func (c *Cluster) Clone() *Cluster {
	out := *c
	slab := make([]Node, c.NodeCount())
	out.Frontend, out.Computes = nil, make([]*Node, len(c.Computes))
	if c.Frontend != nil {
		slab[0].Hardware = c.Frontend.Hardware
		out.Frontend, slab = &slab[0], slab[1:]
	}
	for i, n := range c.Computes {
		slab[i].Hardware = n.Hardware
		out.Computes[i] = &slab[i]
	}
	return &out
}

// Nodes returns all nodes, frontend first, in a fresh slice the caller may
// keep or reorder; code inside a poll or a kickstart ranges over All.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, 0, len(c.Computes)+1)
	if c.Frontend != nil {
		out = append(out, c.Frontend)
	}
	out = append(out, c.Computes...)
	return out
}

// All iterates every node, frontend first, without the copy Nodes makes:
// what the per-poll and per-kickstart paths range over.
func (c *Cluster) All() iter.Seq[*Node] {
	return func(yield func(*Node) bool) {
		if c.Frontend != nil && !yield(c.Frontend) {
			return
		}
		for _, n := range c.Computes {
			if !yield(n) {
				return
			}
		}
	}
}

// NodeCount returns the total number of nodes.
func (c *Cluster) NodeCount() int {
	if c.Frontend == nil {
		return len(c.Computes)
	}
	return len(c.Computes) + 1
}

// Lookup finds a node by name.
func (c *Cluster) Lookup(name string) (*Node, bool) {
	for n := range c.All() {
		if n.Name == name {
			return n, true
		}
	}
	return nil, false
}

// ComputeIndex returns the named compute node's position in Computes, its
// identity inside the simulator, or -1 if no compute node has that name.
func (c *Cluster) ComputeIndex(name string) int {
	for i, n := range c.Computes {
		if n.Name == name {
			return i
		}
	}
	return -1
}

// Cores returns the total core count across all nodes.
func (c *Cluster) Cores() int {
	total := 0
	for n := range c.All() {
		total += n.Cores()
	}
	return total
}

// RpeakGFLOPS returns the theoretical peak performance in GFLOPS across all
// nodes, the quantity Tables 3-5 call Rpeak.
func (c *Cluster) RpeakGFLOPS() float64 {
	total := 0.0
	for n := range c.All() {
		total += n.GFLOPS()
	}
	return total
}

// EnergyWh returns total accumulated energy across nodes.
func (c *Cluster) EnergyWh() float64 {
	total := 0.0
	for n := range c.All() {
		total += n.EnergyWh()
	}
	return total
}

// PowerOnAll powers every node on.
//
//detlint:reached benchmark: BenchmarkMonitorPoll and BenchmarkMonitorFirstPoll (BENCH_baseline.json) and the root scheduler, power and failure benchmarks start from a powered cluster
func (c *Cluster) PowerOnAll() {
	for n := range c.All() {
		n.SetPower(PowerOn)
	}
}

// Validate checks structural invariants: unique node names, every NIC wired
// to a network, compute nodes present.
func (c *Cluster) Validate() error {
	if c.Frontend == nil {
		return fmt.Errorf("cluster %s: no frontend", c.Name)
	}
	seen := make(map[string]bool, c.NodeCount())
	for n := range c.All() {
		if seen[n.Name] {
			return fmt.Errorf("cluster %s: duplicate node name %s", c.Name, n.Name)
		}
		seen[n.Name] = true
		if len(n.NICs) == 0 {
			return fmt.Errorf("cluster %s: node %s has no NIC", c.Name, n.Name)
		}
	}
	if len(c.Computes) == 0 {
		return fmt.Errorf("cluster %s: no compute nodes", c.Name)
	}
	return nil
}

// Summary returns a one-line description like Table 3's rows.
func (c *Cluster) Summary() string {
	return fmt.Sprintf("%s: %d nodes, %d cores, %.2f TFLOPS Rpeak",
		c.Name, c.NodeCount(), c.Cores(), c.RpeakGFLOPS()/1000)
}
