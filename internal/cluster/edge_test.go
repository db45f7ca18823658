package cluster

import (
	"strings"
	"testing"
)

func TestAcceleratorContributions(t *testing.T) {
	n := NewNode("gpu1", RoleCompute, &XeonX5650, 2, 48).
		AddDisk(Disk{Model: "x", SizeGB: 100}).
		AddAccelerator(Accelerator{GFLOPSEach: 400, WattsEach: 225})
	// GFLOPS includes the accelerator.
	cpuOnly := XeonX5650.GFLOPS() * 2
	if got := n.GFLOPS(); got != cpuOnly+400 {
		t.Fatalf("GFLOPS = %v, want %v", got, cpuOnly+400)
	}
	// Power includes the accelerator when on.
	n.SetPower(PowerOn)
	want := 95.0*2 + 15 + 2 + 225
	if got := n.DrawWatts(); got != want {
		t.Fatalf("DrawWatts = %v, want %v", got, want)
	}
}

func TestSocketsDefaultToOne(t *testing.T) {
	n := NewNode("x", RoleCompute, &CeleronG1840, 0, 4)
	if n.Sockets != 1 || n.Cores() != 2 {
		t.Fatalf("sockets=%d cores=%d", n.Sockets, n.Cores())
	}
}

func TestNodeStringAndOSLifecycle(t *testing.T) {
	n := NewNode("head", RoleFrontend, &CoreI7_4770S, 1, 32).AddDisk(Disk{Model: "ssd", SizeGB: 128})
	if !strings.Contains(n.String(), "head [frontend]") {
		t.Fatalf("String = %q", n.String())
	}
	if n.OS() != "" {
		t.Fatal("bare metal should have no OS")
	}
	n.SetOS("CentOS 6.5")
	if n.OS() != "CentOS 6.5" {
		t.Fatal("SetOS")
	}
}

func TestClusterEnergyStartsZero(t *testing.T) {
	c := NewLittleFe()
	if c.EnergyWh() != 0 {
		t.Fatal("fresh cluster energy should be zero")
	}
}
