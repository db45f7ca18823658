package hpl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xcbc/internal/cluster"
)

func TestFactorSolveSmallKnown(t *testing.T) {
	// A = [[2,1],[1,3]], b = [3,5] -> x = [4/5, 7/5].
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	orig := a.Clone()
	piv, err := Factor(a, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := Solve(a, piv, []float64{3, 5})
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
	if res := ScaledResidual(orig, x, []float64{3, 5}); res >= ResidualThreshold {
		t.Fatalf("residual = %v", res)
	}
}

func TestFactorRequiresPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	orig := a.Clone()
	piv, err := Factor(a, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{2, 3}
	x := Solve(a, piv, b)
	if res := ScaledResidual(orig, x, b); res >= ResidualThreshold {
		t.Fatalf("residual = %v, x = %v", res, x)
	}
}

func TestFactorSingular(t *testing.T) {
	a := NewMatrix(3, 3) // all zeros
	if _, err := Factor(a, 2, 1); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	rect := NewMatrix(2, 3)
	if _, err := Factor(rect, 2, 1); err == nil {
		t.Fatal("rectangular matrix should be rejected")
	}
}

func TestFactorMatchesUnblockedReference(t *testing.T) {
	// Blocked, parallel factorization must produce the same residual quality
	// as the simple reference for random systems of varied sizes.
	for _, n := range []int{1, 2, 3, 7, 16, 33, 64, 100} {
		a, b := RandomSystem(n, int64(n))
		orig := a.Clone()
		piv, err := Factor(a, 8, 4)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := Solve(a, piv, b)
		if res := ScaledResidual(orig, x, b); res >= ResidualThreshold {
			t.Errorf("n=%d: residual %v too large", n, res)
		}
	}
}

func TestBlockSizeAndWorkersDoNotChangeResult(t *testing.T) {
	const n = 48
	ref, refB := RandomSystem(n, 99)
	refLU := ref.Clone()
	refPiv, err := Factor(refLU, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	refX := Solve(refLU, refPiv, refB)
	for _, nb := range []int{0, 2, 7, 16, 48, 100} {
		for _, workers := range []int{0, 1, 3, 8} {
			a, b := RandomSystem(n, 99)
			lu := a.Clone()
			piv, err := Factor(lu, nb, workers)
			if err != nil {
				t.Fatalf("nb=%d workers=%d: %v", nb, workers, err)
			}
			x := Solve(lu, piv, b)
			for i := range x {
				if math.Abs(x[i]-refX[i]) > 1e-9 {
					t.Fatalf("nb=%d workers=%d: x[%d] = %v, ref %v", nb, workers, i, x[i], refX[i])
				}
			}
		}
	}
}

func TestFactorPropertyRandomSystemsSolve(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		n := 2 + int(sizeRaw)%40
		a, b := RandomSystem(n, seed)
		orig := a.Clone()
		piv, err := Factor(a, 8, 2)
		if err != nil {
			// Random continuous matrices are almost surely nonsingular; treat
			// singularity as a (vanishingly unlikely) pass.
			return err == ErrSingular
		}
		x := Solve(a, piv, b)
		return ScaledResidual(orig, x, b) < ResidualThreshold
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRunMeasuresAndValidates(t *testing.T) {
	r, err := Run(120, 32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("HPL run failed validation: %v", r)
	}
	if r.GFLOPS <= 0 {
		t.Fatalf("GFLOPS = %v", r.GFLOPS)
	}
	if r.String() == "" || r.N != 120 {
		t.Fatal("result fields")
	}
}

func TestFlopCount(t *testing.T) {
	if got := FlopCount(1000); math.Abs(got-(2.0/3.0*1e9+1.5e6)) > 1 {
		t.Fatalf("FlopCount(1000) = %v", got)
	}
}

func TestNormInf(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, -3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 2)
	a.Set(1, 1, 2)
	if got := a.NormInf(); got != 4 {
		t.Fatalf("NormInf = %v", got)
	}
}

// --- model tests ---

func TestProblemSize(t *testing.T) {
	lim := cluster.NewLimulusHPC200() // 32 + 3*16 = 80 GB
	n := ProblemSize(lim, 0.8)
	// N^2 * 8 bytes must fit in 64 GB but use most of it.
	bytes := float64(n) * float64(n) * 8
	if bytes > 64e9 || bytes < 0.95*64e9 {
		t.Fatalf("N=%d uses %.1f GB of the 64 GB budget", n, bytes/1e9)
	}
	// Invalid fraction falls back to 0.8.
	if ProblemSize(lim, 0) != n {
		t.Fatal("fraction fallback")
	}
}

func TestModelReproducesLimulusRmax(t *testing.T) {
	lim := cluster.NewLimulusHPC200()
	n := ProblemSize(lim, 0.8)
	r := Model(lim, n, ModelParams{})
	// Paper Table 5: Rmax = 498.3 GFLOPS. The default calibration should be
	// within 2%.
	if math.Abs(r.RmaxGF-498.3)/498.3 > 0.02 {
		t.Fatalf("Limulus model Rmax = %.1f, want ~498.3", r.RmaxGF)
	}
	if math.Abs(r.RpeakGF-793.6) > 0.01 {
		t.Fatalf("Rpeak = %v", r.RpeakGF)
	}
	if r.Elapsed <= 0 {
		t.Fatal("elapsed should be positive")
	}
	if r.String() == "" {
		t.Fatal("String")
	}
}

func TestModelShapeLittleFeVsLimulus(t *testing.T) {
	lf := cluster.NewLittleFe()
	lim := cluster.NewLimulusHPC200()
	rLF := Model(lf, ProblemSize(lf, 0.8), ModelParams{})
	rLim := Model(lim, ProblemSize(lim, 0.8), ModelParams{})
	// Shape from Table 5: Limulus wins on absolute Rmax...
	if rLim.RmaxGF <= rLF.RmaxGF {
		t.Fatalf("Limulus Rmax %.1f should exceed LittleFe %.1f", rLim.RmaxGF, rLF.RmaxGF)
	}
	// ...but LittleFe wins on price per GFLOPS, both Rpeak and Rmax.
	if PricePerf(lf.CostUSD, rLF.RpeakGF) >= PricePerf(lim.CostUSD, rLim.RpeakGF) {
		t.Fatal("LittleFe should have better $/GFLOPS at Rpeak")
	}
	if PricePerf(lf.CostUSD, rLF.RmaxGF) >= PricePerf(lim.CostUSD, rLim.RmaxGF) {
		t.Fatal("LittleFe should have better $/GFLOPS at Rmax")
	}
	// Efficiencies land in the plausible GigE band.
	for _, r := range []Result{rLF, rLim} {
		if r.Efficiency < 0.4 || r.Efficiency > 0.9 {
			t.Errorf("efficiency %v out of plausible band", r.Efficiency)
		}
	}
}

func TestModelMonotonicity(t *testing.T) {
	lim := cluster.NewLimulusHPC200()
	n := ProblemSize(lim, 0.8)
	base := Model(lim, n, ModelParams{})
	// Bigger problems amortize communication: efficiency rises with N.
	bigger := Model(lim, 2*n, ModelParams{})
	if bigger.Efficiency <= base.Efficiency {
		t.Fatal("efficiency should rise with N")
	}
	// Faster network raises efficiency.
	fast := cluster.NewLimulusHPC200()
	fast.Network = cluster.InfinibandQDR
	ib := Model(fast, n, ModelParams{})
	if ib.Efficiency <= base.Efficiency {
		t.Fatal("efficiency should rise with faster interconnect")
	}
}

func TestCalibrateCommCoeff(t *testing.T) {
	lim := cluster.NewLimulusHPC200()
	n := ProblemSize(lim, 0.8)
	coeff, err := CalibrateCommCoeff(lim, n, 0.85, 498.3)
	if err != nil {
		t.Fatal(err)
	}
	r := Model(lim, n, ModelParams{Gamma: 0.85, CommCoeff: coeff})
	if math.Abs(r.RmaxGF-498.3) > 0.5 {
		t.Fatalf("calibrated model Rmax = %.2f, want 498.3", r.RmaxGF)
	}
	// The default constant should be close to the calibration.
	if math.Abs(coeff-DefaultCommCoeff)/DefaultCommCoeff > 0.05 {
		t.Errorf("DefaultCommCoeff %.3f drifted from calibration %.3f", DefaultCommCoeff, coeff)
	}
	// Out-of-range targets rejected.
	if _, err := CalibrateCommCoeff(lim, n, 0.85, 0); err == nil {
		t.Error("zero target should fail")
	}
	if _, err := CalibrateCommCoeff(lim, n, 0.85, 1e6); err == nil {
		t.Error("above-peak target should fail")
	}
}

func TestGammaForCPU(t *testing.T) {
	if GammaForCPU(cluster.AtomD510) >= GammaForCPU(cluster.CeleronG1840) {
		t.Error("Atom should have lower DGEMM efficiency than Haswell")
	}
	if GammaForCPU(cluster.XeonX5650) != 0.90 {
		t.Error("Westmere gamma")
	}
	if GammaForCPU(cluster.XeonE5_2670) != 0.88 {
		t.Error("Sandy Bridge gamma")
	}
}

func TestPricePerfZeroGuard(t *testing.T) {
	if PricePerf(1000, 0) != 0 {
		t.Fatal("zero gflops should yield 0, not Inf")
	}
}
