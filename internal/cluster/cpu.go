// Package cluster models the hardware the paper deploys XCBC and XNIT onto:
// CPU models, nodes with disks and NICs, interconnects, and whole clusters
// (the LittleFe and Limulus HPC200 luggable machines plus the Table 3 site
// deployments). Peak floating-point capability (Rpeak) is derived from the
// catalog the same way the paper derives it: cores x clock x flops/cycle,
// plus accelerator contributions.
package cluster

import "fmt"

// CPUModel describes a processor. Watts is the package power the paper
// quotes (10.56 W for the Atom D510 vs 43.06 W for the Celeron G1840),
// not the vendor TDP.
type CPUModel struct {
	Name          string
	ClockGHz      float64
	Cores         int
	FlopsPerCycle float64 // double-precision flops per core per cycle
	Watts         float64
}

// GFLOPS returns the peak double-precision GFLOPS of one CPU.
func (c CPUModel) GFLOPS() float64 {
	return float64(c.Cores) * c.ClockGHz * c.FlopsPerCycle
}

func (c CPUModel) String() string {
	return fmt.Sprintf("%s (%d cores @ %.2f GHz, %.1f GFLOPS)", c.Name, c.Cores, c.ClockGHz, c.GFLOPS())
}

// CPU models used by the paper's machines. Flops/cycle values follow the
// paper's arithmetic: the published LittleFe and Limulus Rpeak figures imply
// 16 DP flops/cycle (Haswell AVX2+FMA); pre-Haswell parts use their
// generation's values. Site-cluster clocks are fit so the catalog reproduces
// Table 3's published Rpeak (see EXPERIMENTS.md, "Tables").
var (
	// AtomD510 is the CPU of the original LittleFe v4 design.
	AtomD510 = CPUModel{
		Name: "Intel Atom D510", ClockGHz: 1.66, Cores: 2,
		FlopsPerCycle: 2, Watts: 10.56,
	}
	// CeleronG1840 is the Haswell part the paper's modified LittleFe uses.
	// No hyperthreading — the paper notes this may matter for training goals.
	CeleronG1840 = CPUModel{
		Name: "Intel Celeron G1840", ClockGHz: 2.8, Cores: 2,
		FlopsPerCycle: 16, Watts: 43.06,
	}
	// CoreI7_4770S powers the Limulus HPC200 (3.10 GHz, 8 MB cache, 65 W).
	CoreI7_4770S = CPUModel{
		Name: "Intel Core i7-4770S", ClockGHz: 3.1, Cores: 4,
		FlopsPerCycle: 16, Watts: 65,
	}
	// XeonE5_2670 is the Montana State Hyalite node CPU (16 cores/node as
	// dual-socket): 576 cores x 2.6 GHz x 8 flops/cycle = 11.98 TF.
	XeonE5_2670 = CPUModel{
		Name: "Intel Xeon E5-2670", ClockGHz: 2.6, Cores: 8,
		FlopsPerCycle: 8, Watts: 115,
	}
	// XeonX5650 is the Marshall cluster CPU (Westmere, 4 flops/cycle):
	// 264 cores x 2.66 GHz x 4 = 2.81 TF, the paper's "2.8TF theoretical".
	XeonX5650 = CPUModel{
		Name: "Intel Xeon X5650", ClockGHz: 2.66, Cores: 6,
		FlopsPerCycle: 4, Watts: 95,
	}
	// OpteronKU is the Kansas cluster CPU, with the clock fit so that
	// 1760 cores x 1.847 GHz x 8 = 26.0 TF as published.
	OpteronKU = CPUModel{
		Name: "AMD Opteron (KU community cluster)", ClockGHz: 1.847, Cores: 8,
		FlopsPerCycle: 8, Watts: 85,
	}
	// XeonPBARC is the Hawaii PBARC CPU; the published 4.3 TF over 80 cores
	// implies accelerators, so the CPU contributes 80 x 2.0 x 8 = 1.28 TF and
	// the rest is modelled as a GPU component (see catalog.go).
	XeonPBARC = CPUModel{
		Name: "Intel Xeon E5-2640v2 (PBARC)", ClockGHz: 2.0, Cores: 5,
		FlopsPerCycle: 8, Watts: 95,
	}
)

// Accelerator is a GPU or similar attached device contributing to Rpeak.
// GFLOPSEach values in the catalog are fit to published totals when the
// paper gives only aggregate numbers.
type Accelerator struct {
	GFLOPSEach float64
	WattsEach  float64
}
