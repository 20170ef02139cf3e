// Reductions tour: π by midpoint integration (sum reduction), a geometric-
// mean computation (the multiplication reduction), and a logical-AND
// validity check, each folded in thread order at the loop's barrier by
// omp.Reduce; then the paper's Listing 6 compare-and-swap loop on its own,
// an atomic multiply.
//
//	go run ./examples/pi
package main

import (
	"fmt"
	"math"

	"gomp/omp"
)

func main() {
	const n = 10_000_000
	h := 1.0 / float64(n)

	// π = ∫₀¹ 4/(1+x²) dx — the canonical OpenMP reduction example.
	// Each thread sums its share privately, from the operator's identity;
	// omp.Reduce folds the partials into pi in thread order at the loop's
	// barrier, so the loop itself runs nowait.
	pi := 0.0
	omp.Parallel(func(t *omp.Thread) {
		local := 0.0
		omp.ForRange(t, n, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				x := h * (float64(i) + 0.5)
				local += 4 / (1 + x*x)
			}
		}, omp.NoWait())
		omp.Reduce(t, omp.ReduceSum, &pi, local)
	})
	fmt.Printf("pi ≈ %.12f (error %.2e) on %d threads\n",
		pi*h, math.Abs(pi*h-math.Pi), omp.GetMaxThreads())

	// Geometric mean via reduction(*:prod): the identity is 1.
	const m = 4096
	prod := 1.0
	omp.Parallel(func(t *omp.Thread) {
		local := omp.ReduceIdentity(omp.ReduceProd, prod)
		omp.For(t, m, func(i int64) {
			local *= 1 + float64(i%5)/1e4
		}, omp.NoWait())
		omp.Reduce(t, omp.ReduceProd, &prod, local)
	}, omp.NumThreads(8))
	fmt.Printf("geometric mean of %d factors: %.9f\n", m, math.Pow(prod, 1.0/m))

	// reduction(&&:ok): every sample must satisfy the predicate.
	ok := true
	omp.Parallel(func(t *omp.Thread) {
		local := true
		omp.For(t, m, func(i int64) {
			local = local && (i*i >= 0)
		}, omp.NoWait())
		omp.ReduceBool(t, omp.ReduceLogicalAnd, &ok, local)
	}, omp.NumThreads(8))
	fmt.Printf("all samples valid: %v\n", ok)

	// The CAS loop itself, visible: concurrent multiplications on one
	// float64, exactly the paper's pseudo-code and what `//omp atomic`
	// lowers `cell *= 2` to.
	cell := 1.0
	omp.Parallel(func(t *omp.Thread) {
		omp.For(t, 64, func(i int64) {
			for _, f := range []float64{2, 0.5} {
				x := omp.AtomicLoad(&cell)
				for !omp.AtomicCAS(&cell, &x, x*f) {
				}
			}
		})
	}, omp.NumThreads(8))
	fmt.Printf("atomic multiply ladder returned to %v (expected 1)\n", cell)
}
