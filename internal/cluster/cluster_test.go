package cluster

import (
	"math"
	"strings"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCPUGFLOPS(t *testing.T) {
	if got := CeleronG1840.GFLOPS(); !almostEqual(got, 89.6, 1e-9) {
		t.Errorf("Celeron G1840 GFLOPS = %v, want 89.6", got)
	}
	if got := CoreI7_4770S.GFLOPS(); !almostEqual(got, 198.4, 1e-9) {
		t.Errorf("i7-4770S GFLOPS = %v, want 198.4", got)
	}
	if !strings.Contains(CeleronG1840.String(), "Celeron") {
		t.Error("CPU String should name the part")
	}
}

// TestLittleFeMatchesTable4And5 pins the paper's published LittleFe numbers.
func TestLittleFeMatchesTable4And5(t *testing.T) {
	c := NewLittleFe()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NodeCount() != 6 {
		t.Errorf("nodes = %d, want 6", c.NodeCount())
	}
	if c.Cores() != 12 {
		t.Errorf("cores = %d, want 12", c.Cores())
	}
	if got := c.RpeakGFLOPS(); !almostEqual(got, 537.6, 1e-9) {
		t.Errorf("Rpeak = %v, want 537.6", got)
	}
	if c.CostUSD != 3600 {
		t.Errorf("cost = %v", c.CostUSD)
	}
	// Every node must have a disk — the paper's Rocks-enabling modification.
	for _, n := range c.Nodes() {
		if !n.HasDisk() {
			t.Errorf("%s should have an mSATA disk", n.Name)
		}
	}
}

func TestLimulusMatchesTable4And5(t *testing.T) {
	c := NewLimulusHPC200()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NodeCount() != 4 || c.Cores() != 16 {
		t.Errorf("nodes/cores = %d/%d, want 4/16", c.NodeCount(), c.Cores())
	}
	if got := c.RpeakGFLOPS(); !almostEqual(got, 793.6, 1e-9) {
		t.Errorf("Rpeak = %v, want 793.6", got)
	}
	if c.CostUSD != 5995 {
		t.Errorf("cost = %v", c.CostUSD)
	}
	// Compute nodes are diskless (vendor design); headnode has storage.
	for _, n := range c.Computes {
		if n.HasDisk() {
			t.Errorf("%s should be diskless", n.Name)
		}
	}
	if !c.Frontend.HasDisk() {
		t.Error("headnode should have disks")
	}
}

func TestLittleFeOriginalDisklessAndSlower(t *testing.T) {
	c := NewLittleFeOriginal()
	for _, n := range c.Computes {
		if n.HasDisk() {
			t.Errorf("original LittleFe compute %s should be diskless", n.Name)
		}
	}
	if c.RpeakGFLOPS() >= NewLittleFe().RpeakGFLOPS()/5 {
		t.Errorf("Atom design should be far slower: %v", c.RpeakGFLOPS())
	}
	// Paper: Atom D510 uses 10.56 W vs 43.06 W for the Celeron G1840.
	if AtomD510.Watts != 10.56 || CeleronG1840.Watts != 43.06 {
		t.Error("CPU watts should match the paper's figures")
	}
}

// TestTable3RpeakTotals pins every Table 3 row and the 49.61 TF aggregate.
func TestTable3RpeakTotals(t *testing.T) {
	want := []struct {
		site  string
		nodes int
		cores int
		tf    float64
	}{
		{"University of Kansas", 220, 1760, 26.0},
		{"Montana State University", 36, 576, 11.98},
		{"Marshall University", 22, 264, 6.0},
		{"Pacific Basin Agricultural Research Center (Univ. of Hawaii - Hilo)", 16, 80, 4.3},
		{"Indiana University", 6, 12, 0.54},
		{"Indiana University", 4, 16, 0.79},
	}
	sites := Table3Sites()
	if len(sites) != len(want) {
		t.Fatalf("sites = %d, want %d", len(sites), len(want))
	}
	var totalTF float64
	for i, w := range want {
		c := sites[i].Build()
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", w.site, err)
			continue
		}
		if sites[i].Site != w.site {
			t.Errorf("row %d site = %q, want %q", i, sites[i].Site, w.site)
		}
		if c.NodeCount() != w.nodes {
			t.Errorf("%s nodes = %d, want %d", w.site, c.NodeCount(), w.nodes)
		}
		if c.Cores() != w.cores {
			t.Errorf("%s cores = %d, want %d", w.site, c.Cores(), w.cores)
		}
		tf := c.RpeakGFLOPS() / 1000
		// Within rounding of the published value (two decimals).
		if math.Abs(tf-w.tf) > 0.011 {
			t.Errorf("%s Rpeak = %.3f TF, want %.2f", w.site, tf, w.tf)
		}
		totalTF += math.Round(tf*100) / 100
	}
	if math.Abs(totalTF-49.61) > 0.011 {
		t.Errorf("Table 3 total = %.2f TF, want 49.61", totalTF)
	}
}

func TestNodePowerAndEnergy(t *testing.T) {
	n := NewNode("x", RoleCompute, CeleronG1840, 1, 8).AddDisk(mSATA128)
	if n.Power() != PowerOff {
		t.Fatal("new node should be off")
	}
	if n.DrawWatts() != 0 {
		t.Fatal("off node draws no power")
	}
	n.SetPower(PowerOn)
	// 43.06 CPU + 15 board + 2 disk.
	if got := n.DrawWatts(); !almostEqual(got, 60.06, 1e-9) {
		t.Errorf("DrawWatts = %v", got)
	}
	n.AddEnergy(12.5)
	n.AddEnergy(7.5)
	if n.EnergyWh() != 20 {
		t.Errorf("EnergyWh = %v", n.EnergyWh())
	}
	if PowerOn.String() != "on" || PowerOff.String() != "off" {
		t.Error("PowerState strings")
	}
}

func TestNodeServicesAndAttrs(t *testing.T) {
	n := NewNode("fe", RoleFrontend, CoreI7_4770S, 1, 32)
	n.StartService("httpd")
	n.StartService("pbs_server")
	if !n.ServiceRunning("httpd") {
		t.Error("httpd should run")
	}
	if got := n.Services(); len(got) != 2 || got[0] != "httpd" {
		t.Errorf("Services = %v", got)
	}
	n.StopService("httpd")
	if n.ServiceRunning("httpd") {
		t.Error("httpd should be stopped")
	}
	n.SetAttr("rack", "0")
	if v, ok := n.Attr("rack"); !ok || v != "0" {
		t.Error("attr lost")
	}
	if _, ok := n.Attr("none"); ok {
		t.Error("missing attr should report !ok")
	}
	attrs := n.Attrs()
	attrs["rack"] = "tampered"
	if v, _ := n.Attr("rack"); v != "0" {
		t.Error("Attrs should return a copy")
	}
}

func TestNodeWipe(t *testing.T) {
	n := NewNode("x", RoleCompute, CeleronG1840, 1, 8)
	n.SetOS("CentOS 6.5")
	n.StartService("gmond")
	n.WipePackages()
	if n.OS() != "" || n.ServiceRunning("gmond") || n.Packages().Len() != 0 {
		t.Error("wipe should reset to bare metal")
	}
}

func TestClusterLookupAndValidate(t *testing.T) {
	c := NewLittleFe()
	if _, ok := c.Lookup("compute-0-3"); !ok {
		t.Error("compute-0-3 should exist")
	}
	if _, ok := c.Lookup("ghost"); ok {
		t.Error("ghost should not exist")
	}
	// Break invariants.
	bad := New("bad", "x", nil, GigabitEthernet)
	if bad.Validate() == nil {
		t.Error("nil frontend should fail validation")
	}
	fe := NewNode("fe", RoleFrontend, CeleronG1840, 1, 8).AddNIC(NIC{Name: "eth0"})
	bad2 := New("bad2", "x", fe, GigabitEthernet)
	if bad2.Validate() == nil {
		t.Error("no computes should fail validation")
	}
	dupe := New("dupe", "x", fe, GigabitEthernet)
	n2 := NewNode("fe", RoleCompute, CeleronG1840, 1, 8).AddNIC(NIC{Name: "eth0"})
	dupe.AddCompute(n2)
	if dupe.Validate() == nil {
		t.Error("duplicate names should fail validation")
	}
	noNIC := New("nonic", "x", fe, GigabitEthernet)
	noNIC.AddCompute(NewNode("c1", RoleCompute, CeleronG1840, 1, 8))
	if noNIC.Validate() == nil {
		t.Error("NIC-less node should fail validation")
	}
}

func TestClusterAggregates(t *testing.T) {
	c := NewLimulusHPC200()
	for _, n := range c.Nodes() {
		n.AddEnergy(10)
	}
	if c.EnergyWh() != 40 {
		t.Errorf("EnergyWh = %v", c.EnergyWh())
	}
	if !strings.Contains(c.Summary(), "4 nodes") {
		t.Errorf("Summary = %q", c.Summary())
	}
}

func TestNetworkBytesPerSec(t *testing.T) {
	if got := GigabitEthernet.BytesPerSec(); !almostEqual(got, 1.25e8, 1) {
		t.Errorf("GigE BytesPerSec = %v", got)
	}
}

func TestRenderFigures(t *testing.T) {
	lf := NewLittleFe()
	f1 := RenderLittleFeRear(lf)
	if !strings.Contains(f1, "Figure 1") || !strings.Contains(f1, "littlefe-head") {
		t.Errorf("Figure 1 render:\n%s", f1)
	}
	f2 := RenderLittleFeFront(lf)
	if !strings.Contains(f2, "Crucial M550") {
		t.Errorf("Figure 2 should show the mSATA disks:\n%s", f2)
	}
	lim := NewLimulusHPC200()
	f3 := RenderLimulusInternals(lim)
	if !strings.Contains(f3, "850W PSU") || !strings.Contains(f3, "diskless") {
		t.Errorf("Figure 3 render:\n%s", f3)
	}
	topo := RenderTopology(NewKansas())
	if !strings.Contains(topo, "more compute nodes") {
		t.Errorf("large cluster topology should elide nodes:\n%s", topo)
	}
	small := RenderTopology(lf)
	if strings.Contains(small, "more compute nodes") {
		t.Errorf("small cluster should not elide:\n%s", small)
	}
}

func TestHowardCluster(t *testing.T) {
	c := NewHoward()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NodeCount() != 8 {
		t.Errorf("Howard nodes = %d", c.NodeCount())
	}
}
