package cluster

import "fmt"

// Catalog constructors for every machine the paper discusses. Each returns a
// fresh, powered-off cluster so tests and benchmarks can provision
// independently.

// mSATA128 is the Crucial M550 128 GB mSATA SSD the modified LittleFe adds to
// each node so that Rocks (which cannot install diskless) can provision it.
var mSATA128 = Disk{Model: "Crucial M550 128GB", SizeGB: 128, FormFactor: "mSATA"}

// NewLittleFe builds the paper's modified LittleFe: six Gigabyte GA-Q87TN
// mini-ITX boards with Celeron G1840 CPUs, one mSATA SSD per node, a
// dual-homed headnode, and gigabit Ethernet. Rpeak = 12 x 2.8 x 16 = 537.6
// GFLOPS; exemplar cost $3,600.
func NewLittleFe() *Cluster {
	head := NewNode("littlefe-head", RoleFrontend, CeleronG1840, 1, 8).
		AddDisk(mSATA128).
		AddNIC(NIC{Name: "eth0", GBits: 1, Network: "public"}).
		AddNIC(NIC{Name: "eth1", GBits: 1, Network: "private"})
	c := New("LittleFe", "Indiana University", head, GigabitEthernet)
	for i := 1; i <= 5; i++ {
		n := NewNode(computeName(i), RoleCompute, CeleronG1840, 1, 8).
			AddDisk(mSATA128).
			AddNIC(NIC{Name: "eth0", GBits: 1, Network: "private"})
		c.AddCompute(n)
	}
	c.CostUSD = 3600
	c.Notes = "LittleFe v4 frame, Gigabyte GA-Q87TN (LGA-1150), per-node PSUs, " +
		"Rosewill RCX-Z775-LP low-profile coolers"
	return c
}

// NewLittleFeOriginal builds the unmodified LittleFe v4: Atom D510 boards,
// diskless, single shared power supply. Rocks cannot provision it (no
// disks), which is exactly why the paper modifies the design.
func NewLittleFeOriginal() *Cluster {
	head := NewNode("littlefe-head", RoleFrontend, AtomD510, 1, 2).
		AddDisk(Disk{Model: "2.5in laptop HDD", SizeGB: 250, FormFactor: "2.5in"}).
		AddNIC(NIC{Name: "eth0", GBits: 1, Network: "public"}).
		AddNIC(NIC{Name: "eth1", GBits: 1, Network: "private"})
	c := New("LittleFe-v4-original", "Earlham College", head, GigabitEthernet)
	for i := 1; i <= 5; i++ {
		n := NewNode(computeName(i), RoleCompute, AtomD510, 1, 2).
			AddNIC(NIC{Name: "eth0", GBits: 1, Network: "private"})
		c.AddCompute(n)
	}
	c.CostUSD = 3000
	c.Notes = "Original LittleFe v4: Atom D510, diskless compute nodes, PXE-booted"
	return c
}

// NewLimulusHPC200 builds the Basement Supercomputing Limulus HPC200: one
// headnode and three diskless compute nodes in a single deskside case,
// i7-4770S CPUs, vendor power management. Rpeak = 16 x 3.1 x 16 = 793.6
// GFLOPS; price $5,995.
func NewLimulusHPC200() *Cluster {
	head := NewNode("limulus", RoleFrontend, CoreI7_4770S, 1, 32).
		AddDisk(Disk{Model: "WD Red 4TB", SizeGB: 4000, FormFactor: "3.5in"}).
		AddDisk(Disk{Model: "WD Red 4TB", SizeGB: 4000, FormFactor: "3.5in"}).
		AddNIC(NIC{Name: "eth0", GBits: 1, Network: "public"}).
		AddNIC(NIC{Name: "eth1", GBits: 1, Network: "private"})
	c := New("Limulus HPC200", "Indiana University", head, GigabitEthernet)
	for i := 1; i <= 3; i++ {
		n := NewNode(fmt.Sprintf("n%d", i), RoleCompute, CoreI7_4770S, 1, 16).
			AddNIC(NIC{Name: "eth0", GBits: 1, Network: "private"})
		c.AddCompute(n)
	}
	c.CostUSD = 5995
	c.Notes = "Deskside case, 850W PSU, Scientific Linux, vendor cluster tools, " +
		"schedulable node power management; diskless compute nodes"
	return c
}

// SiteCluster describes one Table 3 deployment.
type SiteCluster struct {
	Site      string
	Build     func() *Cluster
	Adoption  string // "xcbc" (from-scratch Rocks) or "xnit" (repo on existing cluster)
	OtherInfo string
}

// NewKansas builds the University of Kansas community cluster: 220 nodes,
// 1760 cores, 26.0 TF ("will be in production in summer 2015").
func NewKansas() *Cluster {
	head := NewNode("ku-head", RoleFrontend, OpteronKU, 1, 64).
		AddDisk(Disk{Model: "SAS 600GB", SizeGB: 600, FormFactor: "3.5in"}).
		AddNIC(NIC{Name: "eth0", GBits: 10, Network: "public"}).
		AddNIC(NIC{Name: "eth1", GBits: 10, Network: "private"})
	c := New("KU Community Cluster", "University of Kansas", head, TenGigEthernet)
	for i := 1; i <= 219; i++ {
		n := NewNode(computeName(i), RoleCompute, OpteronKU, 1, 32).
			AddDisk(Disk{Model: "SATA 500GB", SizeGB: 500, FormFactor: "3.5in"}).
			AddNIC(NIC{Name: "eth0", GBits: 10, Network: "private"})
		c.AddCompute(n)
	}
	c.Notes = "Will be in production in summer 2015"
	return c
}

// NewMontanaState builds MSU's Hyalite cluster: 36 nodes, 576 cores,
// 11.98 TF, 300 TB of Lustre storage; adopted XNIT on an existing cluster.
func NewMontanaState() *Cluster {
	head := NewNode("hyalite-head", RoleFrontend, XeonE5_2670, 2, 128).
		AddDisk(Disk{Model: "SAS 1TB", SizeGB: 1000, FormFactor: "3.5in"}).
		AddNIC(NIC{Name: "eth0", GBits: 10, Network: "public"}).
		AddNIC(NIC{Name: "ib0", GBits: 32, Network: "ib"})
	c := New("Hyalite", "Montana State University", head, InfinibandQDR)
	for i := 1; i <= 35; i++ {
		n := NewNode(computeName(i), RoleCompute, XeonE5_2670, 2, 64).
			AddDisk(Disk{Model: "SATA 1TB", SizeGB: 1000, FormFactor: "3.5in"}).
			AddNIC(NIC{Name: "ib0", GBits: 32, Network: "ib"})
		c.AddCompute(n)
	}
	c.Notes = "300 TB of Lustre storage; environment-modules integration contributed upstream"
	return c
}

// NewMarshall builds Marshall University's cluster: 22 nodes, 264 cores,
// 6.0 TF including 8 GPU nodes with 3584 CUDA cores. The CPU part is the
// paper's "2.8TF theoretical"; GPU GFLOPS are fit so the total matches the
// published 6.0 TF.
func NewMarshall() *Cluster {
	gpuPer := (6000.0 - 264*2.66*4) / 8 // fit: published total minus CPU Rpeak
	head := NewNode("marshall-head", RoleFrontend, XeonX5650, 2, 48).
		AddDisk(Disk{Model: "SAS 600GB", SizeGB: 600, FormFactor: "3.5in"}).
		AddNIC(NIC{Name: "eth0", GBits: 1, Network: "public"}).
		AddNIC(NIC{Name: "eth1", GBits: 1, Network: "private"})
	c := New("Marshall BigGreen", "Marshall University", head, GigabitEthernet)
	for i := 1; i <= 21; i++ {
		n := NewNode(computeName(i), RoleCompute, XeonX5650, 2, 48).
			AddDisk(Disk{Model: "SATA 500GB", SizeGB: 500, FormFactor: "3.5in"}).
			AddNIC(NIC{Name: "eth0", GBits: 1, Network: "private"})
		if i <= 8 {
			n.AddAccelerator(Accelerator{
				Name: "NVIDIA Tesla (Fermi)", CUDACores: 448, GFLOPSEach: gpuPer, WattsEach: 225,
			})
		}
		c.AddCompute(n)
	}
	c.Notes = "8 GPU nodes, 3584 CUDA cores; rebuilt from scratch with XCBC (1 week on site)"
	return c
}

// NewPBARC builds the Pacific Basin Agricultural Research Center cluster
// (Univ. of Hawaii - Hilo): 16 nodes, 80 cores, 4.3 TF, 40 TB storage +
// 60 TB scratch. The published Rpeak over 80 cores implies accelerators;
// four GPU nodes are fit to close the gap.
func NewPBARC() *Cluster {
	cpuR := 80 * 2.0 * 8.0
	gpuPer := (4300.0 - cpuR) / 4
	head := NewNode("pbarc-head", RoleFrontend, XeonPBARC, 1, 64).
		AddDisk(Disk{Model: "SAS 1TB", SizeGB: 1000, FormFactor: "3.5in"}).
		AddNIC(NIC{Name: "eth0", GBits: 1, Network: "public"}).
		AddNIC(NIC{Name: "eth1", GBits: 1, Network: "private"})
	c := New("PBARC", "Pacific Basin Agricultural Research Center (Univ. of Hawaii - Hilo)", head, GigabitEthernet)
	for i := 1; i <= 15; i++ {
		n := NewNode(computeName(i), RoleCompute, XeonPBARC, 1, 32).
			AddDisk(Disk{Model: "SATA 2TB", SizeGB: 2000, FormFactor: "3.5in"}).
			AddNIC(NIC{Name: "eth0", GBits: 1, Network: "private"})
		if i <= 4 {
			n.AddAccelerator(Accelerator{
				Name: "NVIDIA Tesla (Kepler, fit)", CUDACores: 2496, GFLOPSEach: gpuPer, WattsEach: 235,
			})
		}
		c.AddCompute(n)
	}
	c.Notes = "40TB storage, 60TB scratch; XNIT repository on existing commercial stack"
	return c
}

// NewHoward builds the Howard University chemistry cluster mentioned in §4:
// rebuilt from scratch with XCBC by the professor who operates it. The paper
// gives no size, so a modest 8-node Westmere configuration stands in.
func NewHoward() *Cluster {
	head := NewNode("howard-head", RoleFrontend, XeonX5650, 2, 24).
		AddDisk(Disk{Model: "SATA 1TB", SizeGB: 1000, FormFactor: "3.5in"}).
		AddNIC(NIC{Name: "eth0", GBits: 1, Network: "public"}).
		AddNIC(NIC{Name: "eth1", GBits: 1, Network: "private"})
	c := New("Howard Chemistry", "Howard University", head, GigabitEthernet)
	for i := 1; i <= 7; i++ {
		n := NewNode(computeName(i), RoleCompute, XeonX5650, 2, 24).
			AddDisk(Disk{Model: "SATA 500GB", SizeGB: 500, FormFactor: "3.5in"}).
			AddNIC(NIC{Name: "eth0", GBits: 1, Network: "private"})
		c.AddCompute(n)
	}
	c.Notes = "Operated by a professor of chemistry; torn down and rebuilt with XCBC"
	return c
}

// Table3Sites returns the deployed-cluster inventory of Table 3, in the
// paper's row order.
func Table3Sites() []SiteCluster {
	return []SiteCluster{
		{Site: "University of Kansas", Build: NewKansas, Adoption: "xcbc",
			OtherInfo: "Will be in production in summer 2015"},
		{Site: "Montana State University", Build: NewMontanaState, Adoption: "xnit",
			OtherInfo: "300 TB of Lustre storage"},
		{Site: "Marshall University", Build: NewMarshall, Adoption: "xcbc",
			OtherInfo: "8 GPU Nodes, 3584 CUDA Cores"},
		{Site: "Pacific Basin Agricultural Research Center (Univ. of Hawaii - Hilo)",
			Build: NewPBARC, Adoption: "xnit", OtherInfo: "40TB storage, 60TB scratch"},
		{Site: "Indiana University", Build: NewLittleFe, Adoption: "xcbc",
			OtherInfo: "LittleFe Teaching Cluster"},
		{Site: "Indiana University", Build: NewLimulusHPC200, Adoption: "xnit",
			OtherInfo: "Limulus HPC 200 Cluster"},
	}
}
