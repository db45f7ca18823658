package hpl

import (
	"runtime"
	"sync"
)

// FactorTiled is Factor with a cache-tiled trailing update: the update
// A22 -= L21 * U12 is executed over column tiles so that the U12 tile
// stays hot in cache across the rows of a chunk. Same numerics, same
// pivoting, different loop order — an ablation on the repository's own
// compute kernel (BenchmarkTiledUpdate compares the two).
//
//detlint:reached benchmark: BenchmarkTiledUpdate in the root bench_test.go compares it with Factor
func FactorTiled(a *Matrix, nb, tile, workers int) ([]int, error) {
	if a.Rows != a.Cols {
		return nil, errNotSquare(a)
	}
	n := a.Rows
	if nb <= 0 {
		nb = 64
	}
	if tile <= 0 {
		tile = 128
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	piv := make([]int, n)
	for k := 0; k < n; k += nb {
		kb := min(nb, n-k)
		if err := panelFactor(a, k, kb, n, piv); err != nil {
			return nil, err
		}
		if k+kb >= n {
			break
		}
		computeU12(a, k, kb, n)
		updateTrailingTiled(a, k, kb, n, tile, workers)
	}
	return piv, nil
}

// panelFactor factors columns k..k+kb with partial pivoting (shared with
// the reference path; extracted so both factorizations share the exact
// panel numerics).
func panelFactor(a *Matrix, k, kb, n int, piv []int) error {
	for j := k; j < k+kb; j++ {
		p := j
		maxAbs := abs(a.At(j, j))
		for i := j + 1; i < n; i++ {
			if v := abs(a.At(i, j)); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs == 0 {
			return ErrSingular
		}
		piv[j] = p
		if p != j {
			swapRows(a, j, p)
		}
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
	return nil
}

// computeU12 solves L11 * U12 = A12 in place.
func computeU12(a *Matrix, k, kb, n int) {
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
}

// updateTrailingTiled runs the trailing update with column tiling.
func updateTrailingTiled(a *Matrix, k, kb, n, tile, workers int) {
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
			for cLo := start; cLo < n; cLo += tile {
				cHi := min(cLo+tile, n)
				for i := lo; i < hi; i++ {
					row := a.Row(i)
					for r := k; r < k+kb; r++ {
						l := row[r]
						if l == 0 {
							continue
						}
						urow := a.Row(r)
						for c := cLo; c < cHi; c++ {
							row[c] -= l * urow[c]
						}
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

type notSquareError struct{ rows, cols int }

func (e *notSquareError) Error() string {
	return "hpl: Factor needs a square matrix"
}

func errNotSquare(a *Matrix) error { return &notSquareError{a.Rows, a.Cols} }
