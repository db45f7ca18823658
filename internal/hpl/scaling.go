package hpl

import (
	"fmt"
	"strings"

	"xcbc/internal/cluster"
)

// ScalingPoint is one entry of a strong/weak-scaling curve.
type ScalingPoint struct {
	Nodes      int
	RpeakGF    float64
	RmaxGF     float64
	Efficiency float64
}

// ScalingCurve models Rmax as a LittleFe-style cluster grows from 1 to
// maxNodes nodes of the given CPU over the given network, with the problem
// size growing with memory (weak scaling, HPL's usual regime). It exposes
// where the interconnect starts to eat the added peak — the economics
// behind the paper's observation that cheap GigE deskside clusters stop
// scaling quickly.
func ScalingCurve(cpu cluster.CPUModel, ramGBPerNode, maxNodes int, net cluster.Network, p ModelParams) []ScalingPoint {
	out := make([]ScalingPoint, 0, maxNodes)
	for nodes := 1; nodes <= maxNodes; nodes++ {
		c := syntheticCluster(cpu, ramGBPerNode, nodes, net)
		n := ProblemSize(c, 0.8)
		r := Model(c, n, p)
		out = append(out, ScalingPoint{
			Nodes: nodes, RpeakGF: r.RpeakGF, RmaxGF: r.RmaxGF, Efficiency: r.Efficiency,
		})
	}
	return out
}

// syntheticCluster builds an n-node homogeneous cluster for modelling.
func syntheticCluster(cpu cluster.CPUModel, ramGB, nodes int, net cluster.Network) *cluster.Cluster {
	head := cluster.NewNode("head", cluster.RoleFrontend, cpu, 1, ramGB)
	head.AddNIC(cluster.NIC{Name: "eth0", Network: "private"})
	c := cluster.New("synthetic", "model", head, net)
	for i := 1; i < nodes; i++ {
		n := cluster.NewNode(fmt.Sprintf("c%d", i), cluster.RoleCompute, cpu, 1, ramGB)
		n.AddNIC(cluster.NIC{Name: "eth0", Network: "private"})
		c.AddCompute(n)
	}
	return c
}

// RenderScalingCurve prints the curve as an ASCII series (an extension
// figure; the paper has no scaling plot, but the crossover it implies is
// worth seeing).
func RenderScalingCurve(points []ScalingPoint, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%6s %10s %10s %8s  %s\n", "nodes", "Rpeak(GF)", "Rmax(GF)", "eff", "")
	maxR := 0.0
	for _, p := range points {
		if p.RmaxGF > maxR {
			maxR = p.RmaxGF
		}
	}
	for _, p := range points {
		bar := ""
		if maxR > 0 {
			bar = strings.Repeat("#", int(40*p.RmaxGF/maxR))
		}
		fmt.Fprintf(&b, "%6d %10.1f %10.1f %7.1f%%  %s\n",
			p.Nodes, p.RpeakGF, p.RmaxGF, 100*p.Efficiency, bar)
	}
	return b.String()
}
