package core_test

import (
	"fmt"

	"xcbc/internal/cluster"
	"xcbc/internal/core"
	"xcbc/internal/sim"
)

// ExampleBuildXCBC builds the paper's modified LittleFe from scratch and
// submits a job with the standard XSEDE commands.
func ExampleBuildXCBC() {
	eng := sim.NewEngine()
	d, err := core.BuildXCBC(eng, cluster.NewLittleFe(), core.Options{Scheduler: "torque"})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	out, err := d.Exec("qsub -N hello -l nodes=2:ppn=2,walltime=00:30:00 hello.sh")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(out)
	rep, _ := d.CompatReport()
	fmt.Printf("compatible: %v\n", rep.Passed() == rep.Total())
	// Output:
	// 1.littlefe-head
	// compatible: true
}

// ExampleConfigureXNIT converts a running vendor cluster with the XSEDE
// repository — the Limulus workflow.
func ExampleConfigureXNIT() {
	eng := sim.NewEngine()
	c := cluster.NewLimulusHPC200()
	c.PowerOnAll()
	for _, n := range c.Nodes() {
		n.SetOS("Scientific Linux 6.5")
	}
	d, err := core.NewVendorDeployment(eng, c, "", core.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	xnit, err := core.NewXNITRepository()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	core.ConfigureXNIT(d, xnit)
	n, err := d.InstallProfile("compilers")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("installed %d packages cluster-wide\n", n)
	fmt.Printf("frontend has openmpi: %v\n", c.Frontend.Packages().Has("openmpi"))
	// Output:
	// installed 56 packages cluster-wide
	// frontend has openmpi: true
}
