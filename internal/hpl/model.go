package hpl

import (
	"fmt"
	"math"
	"time"

	"xcbc/internal/cluster"
)

// ModelParams parameterize the analytic Rmax model:
//
//	Rmax = Rpeak * gamma / (1 + C * sqrt(P) * Rpeak / (B * N))
//
// where gamma is the single-node DGEMM efficiency, P the node count, B the
// interconnect bandwidth in bytes/s, and N the problem size. The
// communication term follows the standard HPL scaling argument: compute
// grows as N^3/P while panel-broadcast traffic grows as N^2*sqrt(P), so the
// communication-to-compute ratio scales with sqrt(P)*Rpeak/(B*N).
type ModelParams struct {
	// Gamma is the fraction of peak a node's DGEMM achieves. Zero means
	// derive per-CPU from GammaForCPU.
	Gamma float64
	// CommCoeff is the constant C above. Zero means DefaultCommCoeff.
	CommCoeff float64
}

// DefaultCommCoeff is calibrated so that the Limulus HPC200 model reproduces
// the paper's measured Rmax of 498.3 GFLOPS (62.8% of its 793.6 Rpeak) at
// the problem size that fits its memory. See CalibrateCommCoeff.
const DefaultCommCoeff = 2.49

// GammaForCPU estimates single-node DGEMM efficiency by microarchitecture
// class, keyed on DP flops/cycle: wide-FMA cores sustain a smaller fraction
// of their (higher) peak than narrow in-order ones sustain of theirs.
func GammaForCPU(cpu cluster.CPUModel) float64 {
	switch {
	case cpu.FlopsPerCycle >= 16: // Haswell AVX2+FMA
		return 0.85
	case cpu.FlopsPerCycle >= 8: // Sandy/Ivy Bridge AVX
		return 0.88
	case cpu.FlopsPerCycle >= 4: // Nehalem/Westmere SSE
		return 0.90
	default: // in-order Atom
		return 0.60
	}
}

// ProblemSize returns the largest HPL problem size N that fits in the given
// fraction of the cluster's total memory (N^2 doubles).
func ProblemSize(c *cluster.Cluster, memFraction float64) int {
	if memFraction <= 0 || memFraction > 1 {
		memFraction = 0.8
	}
	totalBytes := 0.0
	for _, n := range c.Nodes() {
		totalBytes += float64(n.RAMGB) * 1e9
	}
	return int(math.Sqrt(totalBytes * memFraction / 8))
}

// Result is one modelled or measured HPL outcome.
type Result struct {
	N          int
	RpeakGF    float64
	RmaxGF     float64
	Efficiency float64
	Elapsed    time.Duration // modelled wall time of the solve
}

func (r Result) String() string {
	return fmt.Sprintf("N=%d Rpeak=%.1f GF Rmax=%.1f GF (%.1f%%)",
		r.N, r.RpeakGF, r.RmaxGF, 100*r.Efficiency)
}

// Model predicts the HPL result for a cluster at problem size N.
func Model(c *cluster.Cluster, n int, p ModelParams) Result {
	rpeak := c.RpeakGFLOPS() * 1e9
	gamma := p.Gamma
	if gamma == 0 {
		gamma = GammaForCPU(c.Frontend.CPU)
	}
	coeff := p.CommCoeff
	if coeff == 0 {
		coeff = DefaultCommCoeff
	}
	nodes := float64(c.NodeCount())
	commRatio := coeff * math.Sqrt(nodes) * rpeak / (c.Network.BytesPerSec() * float64(n))
	eff := gamma / (1 + commRatio)
	rmax := rpeak * eff
	elapsed := time.Duration(FlopCount(n) / rmax * float64(time.Second))
	return Result{
		N:          n,
		RpeakGF:    rpeak / 1e9,
		RmaxGF:     rmax / 1e9,
		Efficiency: eff,
		Elapsed:    elapsed,
	}
}

// CalibrateCommCoeff solves for the CommCoeff that makes the model hit a
// target Rmax on a given cluster at problem size N (used to anchor the model
// to the Limulus vendor measurement).
//
//detlint:reached reference: TestCalibrateCommCoeff holds DefaultCommCoeff within 5% of what this solves for the Limulus vendor measurement
func CalibrateCommCoeff(c *cluster.Cluster, n int, gamma, targetRmaxGF float64) (float64, error) {
	rpeak := c.RpeakGFLOPS()
	if targetRmaxGF <= 0 || targetRmaxGF >= rpeak*gamma {
		return 0, fmt.Errorf("hpl: target %.1f GF out of range (0, %.1f)", targetRmaxGF, rpeak*gamma)
	}
	// gamma/(1+x) = target/rpeak  =>  x = gamma*rpeak/target - 1.
	x := gamma*rpeak/targetRmaxGF - 1
	nodes := float64(c.NodeCount())
	coeff := x * c.Network.BytesPerSec() * float64(n) / (math.Sqrt(nodes) * rpeak * 1e9)
	return coeff, nil
}

// PricePerf computes Table 5's dollars-per-GFLOPS columns.
func PricePerf(costUSD, gflops float64) float64 {
	if gflops <= 0 {
		return 0
	}
	return costUSD / gflops
}

// MeasuredResult is an actual LU execution on the host.
type MeasuredResult struct {
	N        int
	NB       int
	Workers  int
	GFLOPS   float64
	Residual float64
	Pass     bool
	Elapsed  time.Duration
}

func (r MeasuredResult) String() string {
	status := "PASSED"
	if !r.Pass {
		status = "FAILED"
	}
	return fmt.Sprintf("N=%d NB=%d workers=%d: %.2f GFLOPS, residual %.3g (%s)",
		r.N, r.NB, r.Workers, r.GFLOPS, r.Residual, status)
}

// Clock abstracts wall-clock measurement for Run; tests may substitute a
// fake. Nil means real time.
type Clock func() time.Time

// Run executes a real LU solve of size n with block size nb and the given
// worker count, validating the solution with the HPL residual test and
// measuring achieved GFLOPS on the host.
func Run(n, nb, workers int, seed int64, clock Clock) (MeasuredResult, error) {
	if clock == nil {
		clock = time.Now //detlint:wallclock Run benchmarks the host; wall time IS the measurement and never feeds a trace
	}
	a, b := RandomSystem(n, seed)
	orig := a.Clone()
	start := clock()
	piv, err := Factor(a, nb, workers)
	if err != nil {
		return MeasuredResult{}, err
	}
	x := Solve(a, piv, b)
	elapsed := clock().Sub(start)
	res := ScaledResidual(orig, x, b)
	gflops := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		gflops = FlopCount(n) / secs / 1e9
	}
	return MeasuredResult{
		N: n, NB: nb, Workers: workers,
		GFLOPS:   gflops,
		Residual: res,
		Pass:     res < ResidualThreshold,
		Elapsed:  elapsed,
	}, nil
}
