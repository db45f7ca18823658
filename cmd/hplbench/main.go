// Command hplbench runs the Linpack workload two ways: the analytic
// Rpeak/Rmax model for the simulated machines of Tables 3-5, and a real
// (small) LU solve on the host to demonstrate the kernel and its residual
// validation.
//
// Usage:
//
//	hplbench -cluster littlefe            # model the paper's machine
//	hplbench -run -n 1500 -nb 64          # actually factor a matrix here
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"xcbc/internal/cluster"
	"xcbc/internal/hpl"
)

func main() {
	clusterName := flag.String("cluster", "littlefe", "cluster to model: "+strings.Join(cluster.CatalogNames(), ", "))
	run := flag.Bool("run", false, "run a real LU solve on this host instead of modelling")
	n := flag.Int("n", 1000, "problem size for -run")
	nb := flag.Int("nb", 64, "block size for -run")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for -run")
	memFrac := flag.Float64("mem", 0.8, "memory fraction for the modelled problem size")
	flag.Parse()

	if *run {
		res, err := hpl.Run(*n, *nb, *workers, 42)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hplbench:", err)
			os.Exit(1)
		}
		fmt.Println(res)
		if !res.Pass {
			os.Exit(1)
		}
		return
	}

	c, err := cluster.FromCatalog(*clusterName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hplbench: unknown cluster %q\n", *clusterName)
		os.Exit(2)
	}
	size := hpl.ProblemSize(c, *memFrac)
	res := hpl.Model(c, size, hpl.ModelParams{})
	fmt.Printf("%s (%s interconnect, %d nodes, %d cores)\n", c.Name, c.Network.Type, c.NodeCount(), c.Cores())
	fmt.Printf("  %s\n", res)
	fmt.Printf("  modelled solve time: %v\n", res.Elapsed)
	if c.CostUSD > 0 {
		fmt.Printf("  $/GFLOPS: %.2f at Rpeak, %.2f at Rmax (cost $%.0f)\n",
			hpl.PricePerf(c.CostUSD, res.RpeakGF), hpl.PricePerf(c.CostUSD, res.RmaxGF), c.CostUSD)
	}
}
