package cluster

import (
	"fmt"
	"strings"
)

// The paper's Figures 1-3 are photographs of physical hardware. A simulation
// cannot reproduce photographs, so these renderers produce structural ASCII
// diagrams carrying the same information: which nodes exist, how they are
// arranged in the chassis, and what components each carries.
// EXPERIMENTS.md, "Figures", records this substitution.

// RenderLittleFeRear renders the Figure 1 substitute: the LittleFe v4 frame,
// rear view, six vertically stacked mini-ITX boards with their PSUs and
// network drops.
func RenderLittleFeRear(c *Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 (substitute): %s frame, rear view — %d nodes in a single portable chassis\n",
		c.Name, c.NodeCount())
	b.WriteString("+--------------------------------------------------------------+\n")
	for _, n := range c.Nodes() {
		nets := make([]string, 0, len(n.NICs))
		for _, nic := range n.NICs {
			nets = append(nets, fmt.Sprintf("%s->%s", nic.Name, nic.Network))
		}
		fmt.Fprintf(&b, "| [%-12s] PSU | %-28s | %-10s |\n",
			n.Name, strings.Join(nets, " "), powerGlyph(n))
	}
	b.WriteString("+--------------------------------------------------------------+\n")
	fmt.Fprintf(&b, "  switch: %s (%g Gbit/s), per-node power supplies\n", c.Network.Type, c.Network.GBits)
	return b.String()
}

// RenderLittleFeFront renders the Figure 2 substitute: front view with CPU,
// cooler, RAM, and disk per shelf.
func RenderLittleFeFront(c *Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 (substitute): %s frame, front view — board/CPU/disk detail\n", c.Name)
	b.WriteString("+----------------------------------------------------------------------+\n")
	for _, n := range c.Nodes() {
		disk := "diskless"
		if n.HasDisk() {
			disk = fmt.Sprintf("%s (%s)", n.Disks[0].Model, n.Disks[0].FormFactor)
		}
		fmt.Fprintf(&b, "| %-12s | %-20s | %2d GB RAM | %-24s |\n",
			n.Name, n.CPU.Name, n.RAMGB, disk)
	}
	b.WriteString("+----------------------------------------------------------------------+\n")
	b.WriteString("  low-profile CPU coolers (Rosewill RCX-Z775-LP) fitted per shelf\n")
	return b.String()
}

// RenderLimulusInternals renders the Figure 3 substitute: the Limulus HPC200
// deskside case with the headnode and three compute blades plus shared PSU.
func RenderLimulusInternals(c *Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (substitute): %s deskside case internals\n", c.Name)
	b.WriteString("+------------------------------------------------------------------+\n")
	b.WriteString("| 850W PSU | power-managed backplane (nodes switch on/off on demand) |\n")
	b.WriteString("+------------------------------------------------------------------+\n")
	for _, n := range c.Nodes() {
		role := "compute blade"
		if n.Role == RoleFrontend {
			role = "headnode"
		}
		disk := "diskless (NFS root from headnode)"
		if n.HasDisk() {
			var parts []string
			for _, d := range n.Disks {
				parts = append(parts, d.Model)
			}
			disk = strings.Join(parts, ", ")
		}
		fmt.Fprintf(&b, "| %-8s | %-13s | %-19s | %-29s |\n", n.Name, role, n.CPU.Name, disk)
	}
	b.WriteString("+------------------------------------------------------------------+\n")
	fmt.Fprintf(&b, "  internal %s switch; total peak %.1f GFLOPS\n", c.Network.Type, c.RpeakGFLOPS())
	return b.String()
}

// RenderTopology renders any cluster's logical topology: frontend bridging
// public and private networks, computes on the private switch.
func RenderTopology(c *Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s topology (%s interconnect)\n", c.Name, c.Network.Type)
	fmt.Fprintf(&b, "  public network\n")
	fmt.Fprintf(&b, "       |\n")
	fmt.Fprintf(&b, "  [%s]  (frontend, %d cores)\n", c.Frontend.Name, c.Frontend.Cores())
	fmt.Fprintf(&b, "       |\n")
	fmt.Fprintf(&b, "  {%s switch, %g Gbit/s}\n", c.Network.Type, c.Network.GBits)
	shown := len(c.Computes)
	const maxShown = 8
	elided := 0
	if shown > maxShown {
		elided = shown - maxShown
		shown = maxShown
	}
	for _, n := range c.Computes[:shown] {
		fmt.Fprintf(&b, "       |-- [%s] %d cores, %s\n", n.Name, n.Cores(), diskNote(n))
	}
	if elided > 0 {
		fmt.Fprintf(&b, "       |-- ... %d more compute nodes ...\n", elided)
	}
	return b.String()
}

func diskNote(n *Node) string {
	if n.HasDisk() {
		return fmt.Sprintf("%d GB disk", n.Disks[0].SizeGB)
	}
	return "diskless"
}

func powerGlyph(n *Node) string {
	if n.Power() == PowerOn {
		return "power: ON"
	}
	return "power: off"
}
