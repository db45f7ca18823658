package hpl

import (
	"fmt"
	"math"

	"xcbc/internal/mpi"
)

// Distributed LU: the same right-looking factorization as Factor, but with
// the matrix distributed row-block-cyclically over MPI ranks (block size =
// the panel width), distributed partial pivoting (a gather of per-rank
// pivot candidates), and binomial-tree panel broadcasts — the communication
// structure of HPL itself, running on the package's message-passing
// runtime. It exists to demonstrate that the XCBC software stack this
// repository builds (MPI + scheduler + modules) actually carries a real
// distributed-memory workload end to end.

// ownerOf returns the rank owning global row r under block-cyclic
// distribution with block nb over p ranks.
func ownerOf(r, nb, p int) int { return (r / nb) % p }

// DistributedResult reports a distributed solve.
type DistributedResult struct {
	N        int
	NB       int
	Ranks    int
	Residual float64
	Pass     bool
	// CommSeconds is the modelled communication time of the slowest rank.
	CommSeconds float64
}

func (r DistributedResult) String() string {
	status := "PASSED"
	if !r.Pass {
		status = "FAILED"
	}
	return fmt.Sprintf("distributed N=%d NB=%d ranks=%d residual %.3g (%s), comm %.3f ms",
		r.N, r.NB, r.Ranks, r.Residual, status, 1000*r.CommSeconds)
}

// DistributedSolve factors and solves A x = b with A distributed over the
// world's ranks and returns the verified result. The full matrix is
// generated deterministically from seed on every rank (each rank keeps only
// its own rows); the solution is assembled on rank 0 and validated against
// a locally generated copy.
//
//detlint:reached benchmark: BenchmarkDistributedHPL in the root bench_test.go runs the distributed-memory LU over internal/mpi
func DistributedSolve(w *mpi.World, n, nb int, seed int64) (DistributedResult, error) {
	if nb <= 0 {
		nb = 8
	}
	p := w.Size()
	xs := make([]float64, n)
	var resid float64

	err := w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		// Build the full system deterministically, keep owned rows. (The
		// real HPL generates its panel locally too.)
		full, b := RandomSystem(n, seed)
		rows := make(map[int][]float64) // global row -> local copy
		for r := 0; r < n; r++ {
			if ownerOf(r, nb, p) == rank {
				rows[r] = append([]float64(nil), full.Row(r)...)
			}
		}

		const (
			tagPivRow  = 100
			tagSwapped = 101
		)
		bvec := append([]float64(nil), b...)

		for k := 0; k < n; k += nb {
			kb := min(nb, n-k)
			for j := k; j < k+kb; j++ {
				// --- distributed partial pivoting on column j ---
				// Each rank proposes its best local candidate (|v|, row).
				// Ties on |v| break toward the lowest global row so the
				// elimination order never depends on map iteration order.
				bestVal, bestRow := -1.0, -1
				for r, row := range rows { //detlint:ordered max with (|v|, lowest row) tiebreak; the winner is order-independent
					if r < j {
						continue
					}
					v := math.Abs(row[j])
					if v > bestVal || (v == bestVal && (bestRow == -1 || r < bestRow)) {
						bestVal, bestRow = v, r
					}
				}
				cand := []float64{bestVal, float64(bestRow)}
				gathered, err := c.Gather(0, cand)
				if err != nil {
					return err
				}
				choice := make([]float64, 2)
				if rank == 0 {
					gv, gr := -1.0, -1
					for _, g := range gathered {
						if g[0] > gv {
							gv, gr = g[0], int(g[1])
						}
					}
					if gr < 0 || gv == 0 {
						return ErrSingular
					}
					choice[0], choice[1] = gv, float64(gr)
				}
				if err := c.Bcast(0, choice); err != nil {
					return err
				}
				pivRow := int(choice[1])

				// Swap global rows j and pivRow (data exchange if the owners
				// differ; bookkeeping swap otherwise).
				ownJ, ownP := ownerOf(j, nb, p), ownerOf(pivRow, nb, p)
				if pivRow != j {
					switch {
					case ownJ == rank && ownP == rank:
						rows[j], rows[pivRow] = rows[pivRow], rows[j]
					case ownJ == rank:
						if err := c.Send(ownP, tagPivRow, rows[j]); err != nil {
							return err
						}
						data, _, err := c.Recv(ownP, tagSwapped)
						if err != nil {
							return err
						}
						rows[j] = data
					case ownP == rank:
						data, _, err := c.Recv(ownJ, tagPivRow)
						if err != nil {
							return err
						}
						if err := c.Send(ownJ, tagSwapped, rows[pivRow]); err != nil {
							return err
						}
						rows[pivRow] = data
					}
					// Everyone swaps the RHS entries (replicated vector).
					bvec[j], bvec[pivRow] = bvec[pivRow], bvec[j]
				}

				// Broadcast the pivot row's trailing segment from its owner.
				pivSeg := make([]float64, n-j)
				if ownerOf(j, nb, p) == rank {
					copy(pivSeg, rows[j][j:])
				}
				if err := c.Bcast(ownerOf(j, nb, p), pivSeg); err != nil {
					return err
				}
				pivot := pivSeg[0]

				// Eliminate column j from owned rows below j, and update the
				// replicated RHS contribution for row j immediately (forward
				// substitution happens implicitly at the end instead; here we
				// only update the matrix).
				for r, row := range rows { //detlint:ordered each owned row is updated independently; no cross-row state
					if r <= j {
						continue
					}
					l := row[j] / pivot
					row[j] = l
					for cIdx := j + 1; cIdx < n; cIdx++ {
						row[cIdx] -= l * pivSeg[cIdx-j]
					}
				}
			}
		}

		// Forward substitution on the replicated RHS using owned multiplier
		// columns: process rows in order; each row's owner computes its
		// partial result and broadcasts the updated y value.
		y := make([]float64, n)
		for r := 0; r < n; r++ {
			val := make([]float64, 1)
			if ownerOf(r, nb, p) == rank {
				sum := bvec[r]
				row := rows[r]
				for j := 0; j < r; j++ {
					sum -= row[j] * y[j]
				}
				val[0] = sum
			}
			if err := c.Bcast(ownerOf(r, nb, p), val); err != nil {
				return err
			}
			y[r] = val[0]
		}
		// Back substitution the same way, in reverse.
		x := make([]float64, n)
		for r := n - 1; r >= 0; r-- {
			val := make([]float64, 1)
			if ownerOf(r, nb, p) == rank {
				sum := y[r]
				row := rows[r]
				for j := r + 1; j < n; j++ {
					sum -= row[j] * x[j]
				}
				val[0] = sum / row[r]
			}
			if err := c.Bcast(ownerOf(r, nb, p), val); err != nil {
				return err
			}
			x[r] = val[0]
		}

		if rank == 0 {
			copy(xs, x)
			fresh, bb := RandomSystem(n, seed)
			resid = ScaledResidual(fresh, x, bb)
		}
		return nil
	})
	if err != nil {
		return DistributedResult{}, err
	}
	return DistributedResult{
		N: n, NB: nb, Ranks: p,
		Residual:    resid,
		Pass:        resid < ResidualThreshold,
		CommSeconds: w.MaxCommSeconds(),
	}, nil
}
