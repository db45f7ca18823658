package rocks

import (
	"errors"
	"fmt"
	"strings"
)

// ErrCycle is wrapped in errors returned when the kickstart include-graph
// contains a cycle; callers can detect it with errors.Is.
var ErrCycle = errors.New("rocks: kickstart graph cycle")

// The kickstart graph is how Rocks composes a node's install: nodes in the
// graph are configuration fragments ("graph nodes"), edges say which
// fragments include which. An appliance's install set is the transitive
// closure from its root. XCBC's roll adds fragments for the XSEDE software
// stack to both frontend and compute appliances.

// GraphNode is one configuration fragment: an ordered list of post-install
// actions (service enablement, path setup) applied when the fragment is part
// of an appliance's closure.
type GraphNode struct {
	Name    string
	Actions []string // e.g. "enable-service:gmond", "mkdir:/opt/apps"
}

// Graph is a directed acyclic include-graph of configuration fragments.
type Graph struct {
	nodes map[string]*GraphNode
	edges map[string][]string // from -> to (from includes to)
}

// NewGraph returns an empty kickstart graph.
func NewGraph() *Graph {
	return &Graph{
		nodes: make(map[string]*GraphNode),
		edges: make(map[string][]string),
	}
}

// AddNode registers a fragment, replacing any previous definition (rolls may
// override base fragments).
func (g *Graph) AddNode(n *GraphNode) {
	g.nodes[n.Name] = n
}

// AddEdge declares that fragment `from` includes fragment `to`. Both ends
// must exist by traversal time but may be added in any order.
func (g *Graph) AddEdge(from, to string) {
	g.edges[from] = append(g.edges[from], to)
}

// Closure returns the fragments reachable from root in deterministic
// (preorder, edge-insertion) order, erroring on cycles or dangling edges —
// both of which Rocks treats as roll authoring bugs.
func (g *Graph) Closure(root string) ([]*GraphNode, error) {
	var out []*GraphNode
	state := make(map[string]int) // 0 unvisited, 1 in-progress, 2 done
	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		switch state[name] {
		case 1:
			return fmt.Errorf("%w: %s -> %s", ErrCycle, strings.Join(path, " -> "), name)
		case 2:
			return nil
		}
		n, ok := g.nodes[name]
		if !ok {
			return fmt.Errorf("rocks: kickstart graph edge to undefined node %q (via %s)", name, strings.Join(path, " -> "))
		}
		state[name] = 1
		out = append(out, n)
		for _, next := range g.edges[name] {
			if err := visit(next, append(path, name)); err != nil {
				return err
			}
		}
		state[name] = 2
		return nil
	}
	if err := visit(root, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// ActionsFor returns the ordered post-install actions for an appliance
// root, flattened from its closure into a new slice.
func (g *Graph) ActionsFor(root string) ([]string, error) {
	nodes, err := g.Closure(root)
	if err != nil {
		return nil, err
	}
	var actions []string
	for _, n := range nodes {
		actions = append(actions, n.Actions...)
	}
	return actions, nil
}

// DefaultGraph builds the base Rocks graph: frontend and compute roots with
// the core service fragments XCBC relies on.
func DefaultGraph() *Graph {
	g := NewGraph()
	g.AddNode(&GraphNode{Name: "base", Actions: []string{
		"mkdir:/export", "enable-service:sshd",
	}})
	g.AddNode(&GraphNode{Name: "frontend", Actions: []string{
		"enable-service:httpd", "enable-service:dhcpd", "enable-service:named",
		"enable-service:rocks-db", "mkdir:/export/rocks/install",
	}})
	g.AddNode(&GraphNode{Name: "compute", Actions: []string{
		"enable-service:rocks-grub",
	}})
	g.AddNode(&GraphNode{Name: "client", Actions: []string{"enable-service:autofs"}})
	g.AddEdge("frontend", "base")
	g.AddEdge("compute", "base")
	g.AddEdge("compute", "client")
	return g
}

// AttachXSEDEFragments adds the XSEDE roll's graph fragments: scheduler
// services, ganglia monitoring, and environment-modules path setup wired
// into both appliance roots. scheduler chooses which job manager's services
// are enabled (the Table 1 "choose one" of Torque, SLURM, SGE).
func AttachXSEDEFragments(g *Graph, scheduler string) error {
	var feSvc, nodeSvc string
	switch scheduler {
	case "torque":
		feSvc, nodeSvc = "pbs_server", "pbs_mom"
	case "slurm":
		feSvc, nodeSvc = "slurmctld", "slurmd"
	case "sge":
		feSvc, nodeSvc = "sge_qmaster", "sge_execd"
	default:
		return fmt.Errorf("rocks: unknown scheduler %q (want torque, slurm, or sge)", scheduler)
	}
	g.AddNode(&GraphNode{Name: "xsede-base", Actions: []string{
		"mkdir:/opt/apps", "mkdir:/opt/modulefiles", "enable-service:environment-modules",
	}})
	g.AddNode(&GraphNode{Name: "xsede-frontend", Actions: []string{
		"enable-service:" + feSvc, "enable-service:maui", "enable-service:gmetad",
		"enable-service:globus-gridftp",
	}})
	g.AddNode(&GraphNode{Name: "xsede-compute", Actions: []string{
		"enable-service:" + nodeSvc, "enable-service:gmond",
	}})
	g.AddEdge("frontend", "xsede-base")
	g.AddEdge("frontend", "xsede-frontend")
	g.AddEdge("compute", "xsede-base")
	g.AddEdge("compute", "xsede-compute")
	return nil
}
