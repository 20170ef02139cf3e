package bench

import "gomp/omp"

// Tiled matrix multiplication — the cache-blocking workload of the
// loop-transformation subsystem. C = A·B over MMN×MMN float64 matrices in
// three formulations that execute the identical floating-point chain per
// output cell and therefore verify by exact equality, no tolerance:
//
//   - naive: the textbook i/j/k triple loop. Row i of A stays hot, but B
//     is walked column-wise over the full matrix per output cell, so every
//     B access past the cache size misses.
//
//   - tiled: the //omp tile sizes(MMTile,MMTile) restructuring (what the
//     preprocessor generates for examples/tile, hand-held here the way
//     lu.go hand-holds its task DAG): i/j/k are blocked so one MMTile²
//     block of B is reused MMTile times before eviction. Per output cell
//     the k blocks still accumulate in increasing k order, which keeps the
//     addition chain — and hence the bits — identical to naive.
//
//   - tiled+parallel: `//omp parallel for collapse(2)` stacked above the
//     tile directive — the tile-grid (it,jt) pairs are distributed over
//     the team, each thread running its cells' complete k-block chain.
//     Cells are disjoint and chains unchanged, so still bitwise equal.
//
// MMN is deliberately not a multiple of MMTile: every sweep crosses the
// fringe tiles that the transformation's min() guards generate.
const (
	// MMN is the matrix order.
	MMN = 200
	// MMTile is the tile side used by the tiled formulations.
	MMTile = 48
)

// NewMMPair returns the deterministic A and B operand matrices.
func NewMMPair() (a, b []float64) {
	a = make([]float64, MMN*MMN)
	b = make([]float64, MMN*MMN)
	seed := uint64(20250730)
	fill := func(m []float64) {
		for i := range m {
			seed = seed*6364136223846793005 + 1442695040888963407
			m[i] = float64(seed>>11)/float64(1<<53) - 0.5
		}
	}
	fill(a)
	fill(b)
	return a, b
}

// MMNaive computes dst = a·b with the textbook triple loop.
func MMNaive(dst, a, b []float64) {
	for i := 0; i < MMN; i++ {
		for j := 0; j < MMN; j++ {
			sum := 0.0
			for k := 0; k < MMN; k++ {
				sum += a[i*MMN+k] * b[k*MMN+j]
			}
			dst[i*MMN+j] = sum
		}
	}
}

// mmTile runs the full k-block chain for the output tile anchored at
// (it,jt): the body of one tile-grid iteration, shared by the serial and
// parallel tiled formulations so both execute identical per-cell chains.
func mmTile(dst, a, b []float64, it, jt int) {
	ih := min(it+MMTile, MMN)
	jh := min(jt+MMTile, MMN)
	for kt := 0; kt < MMN; kt += MMTile {
		kh := min(kt+MMTile, MMN)
		for i := it; i < ih; i++ {
			for j := jt; j < jh; j++ {
				sum := dst[i*MMN+j]
				for k := kt; k < kh; k++ {
					sum += a[i*MMN+k] * b[k*MMN+j]
				}
				dst[i*MMN+j] = sum
			}
		}
	}
}

// MMTiled computes dst = a·b with MMTile×MMTile cache blocking.
func MMTiled(dst, a, b []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for it := 0; it < MMN; it += MMTile {
		for jt := 0; jt < MMN; jt += MMTile {
			mmTile(dst, a, b, it, jt)
		}
	}
}

// MMTiledParallel distributes the tile grid over a team — the runtime
// shape of `parallel for collapse(2)` stacked above `tile sizes(…)`.
func MMTiledParallel(dst, a, b []float64, threads int) {
	for i := range dst {
		dst[i] = 0
	}
	grid := (MMN + MMTile - 1) / MMTile
	omp.Parallel(func(t *omp.Thread) {
		omp.ForRange(t, int64(grid*grid), func(lo, hi int64) {
			for g := lo; g < hi; g++ {
				it := int(g/int64(grid)) * MMTile
				jt := int(g%int64(grid)) * MMTile
				mmTile(dst, a, b, it, jt)
			}
		})
	}, omp.NumThreads(threads))
}

// MMMaxDiff returns the largest absolute elementwise difference.
func MMMaxDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
