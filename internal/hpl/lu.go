// Package hpl implements the High-Performance Linpack workload the paper
// uses to characterize LittleFe and the Limulus HPC200 (Table 5): a real
// blocked LU factorization with partial pivoting and the HPL residual check,
// run with a parallel worker pool; plus the analytic Rpeak/Rmax performance
// model that reproduces the table's numbers for simulated hardware.
package hpl

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
)

// Matrix is a dense row-major N x M matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// NormInf returns the infinity norm (max absolute row sum).
func (m *Matrix) NormInf() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		for _, v := range m.Row(i) {
			sum += math.Abs(v)
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// RandomSystem builds the HPL test problem: a random matrix A (uniform in
// [-0.5, 0.5], the HPL generator's distribution) and right-hand side b,
// deterministically from seed.
func RandomSystem(n int, seed int64) (*Matrix, []float64) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64() - 0.5
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.Float64() - 0.5
	}
	return a, b
}

// ErrSingular is returned when factorization meets an (effectively) zero
// pivot.
var ErrSingular = errors.New("hpl: matrix is singular to working precision")

// Factor computes an in-place blocked LU factorization with partial pivoting:
// P*A = L*U with L unit lower triangular stored below the diagonal and U on
// and above it. It returns the pivot vector (piv[k] = row swapped with row k
// at step k). nb is the block size; workers bounds the parallelism of the
// trailing-submatrix update (<= 0 means GOMAXPROCS).
func Factor(a *Matrix, nb, workers int) ([]int, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("hpl: Factor needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if nb <= 0 {
		nb = 64
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	piv := make([]int, n)
	for k := 0; k < n; k += nb {
		kb := min(nb, n-k)
		// Panel factorization with partial pivoting over columns k..k+kb.
		for j := k; j < k+kb; j++ {
			// Find pivot in column j at or below the diagonal.
			p := j
			maxAbs := math.Abs(a.At(j, j))
			for i := j + 1; i < n; i++ {
				if v := math.Abs(a.At(i, j)); v > maxAbs {
					maxAbs = v
					p = i
				}
			}
			if maxAbs == 0 {
				return nil, ErrSingular
			}
			piv[j] = p
			if p != j {
				swapRows(a, j, p)
			}
			// Scale multipliers and update the remainder of the panel.
			pivot := a.At(j, j)
			for i := j + 1; i < n; i++ {
				l := a.At(i, j) / pivot
				a.Set(i, j, l)
				row := a.Row(i)
				prow := a.Row(j)
				for c := j + 1; c < k+kb; c++ {
					row[c] -= l * prow[c]
				}
			}
		}
		if k+kb >= n {
			break
		}
		// Compute the U12 block row: solve L11 * U12 = A12 with L11 unit
		// lower triangular (forward substitution over the panel rows).
		for j := k + 1; j < k+kb; j++ {
			lrow := a.Row(j)
			for r := k; r < j; r++ {
				l := lrow[r]
				if l == 0 {
					continue
				}
				urow := a.Row(r)
				for c := k + kb; c < n; c++ {
					lrow[c] -= l * urow[c]
				}
			}
		}
		// Trailing update A22 -= L21 * U12, parallel over row chunks.
		updateTrailing(a, k, kb, n, workers)
	}
	return piv, nil
}

// updateTrailing performs A[k+kb:n, k+kb:n] -= A[k+kb:n, k:k+kb] * A[k:k+kb, k+kb:n]
// with rows distributed across workers.
func updateTrailing(a *Matrix, k, kb, n, workers int) {
	start := k + kb
	rows := n - start
	if rows <= 0 {
		return
	}
	if workers > rows {
		workers = rows
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := start + w*chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				row := a.Row(i)
				for r := k; r < k+kb; r++ {
					l := row[r]
					if l == 0 {
						continue
					}
					urow := a.Row(r)
					for c := start; c < n; c++ {
						row[c] -= l * urow[c]
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
}

func swapRows(a *Matrix, i, j int) {
	ri, rj := a.Row(i), a.Row(j)
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

// Solve solves A*x = b given the LU factorization produced by Factor.
// b is not modified; the solution is returned.
func Solve(lu *Matrix, piv []int, b []float64) []float64 {
	n := lu.Rows
	x := append([]float64(nil), b...)
	// Apply row interchanges.
	for k := 0; k < n; k++ {
		if p := piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit lower triangular L.
	for i := 1; i < n; i++ {
		row := lu.Row(i)
		sum := x[i]
		for j := 0; j < i; j++ {
			sum -= row[j] * x[j]
		}
		x[i] = sum
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := lu.Row(i)
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= row[j] * x[j]
		}
		x[i] = sum / row[i]
	}
	return x
}

// ScaledResidual computes the HPL correctness metric:
//
//	||A*x - b||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * n)
//
// where eps is machine epsilon. HPL declares the run valid when this is
// below 16.
func ScaledResidual(a *Matrix, x, b []float64) float64 {
	n := a.Rows
	r := make([]float64, n)
	for i := 0; i < n; i++ {
		row := a.Row(i)
		sum := -b[i]
		for j := 0; j < n; j++ {
			sum += row[j] * x[j]
		}
		r[i] = sum
	}
	rInf, xInf, bInf := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		rInf = math.Max(rInf, math.Abs(r[i]))
		xInf = math.Max(xInf, math.Abs(x[i]))
		bInf = math.Max(bInf, math.Abs(b[i]))
	}
	eps := math.Nextafter(1, 2) - 1
	denom := eps * (a.NormInf()*xInf + bInf) * float64(n)
	if denom == 0 {
		return math.Inf(1)
	}
	return rInf / denom
}

// ResidualThreshold is HPL's pass criterion.
const ResidualThreshold = 16.0

// FlopCount returns the floating-point operations of an n x n LU solve,
// HPL's 2/3 n^3 + 3/2 n^2 accounting.
func FlopCount(n int) float64 {
	fn := float64(n)
	return 2.0/3.0*fn*fn*fn + 1.5*fn*fn
}
