package cg

import (
	"math"

	"gomp/internal/npb"
	"gomp/omp"
)

// The omp flavour mirrors the paper's port: only conj_grad is parallelised
// (it "accounts for around 95% of the runtime"); the power-iteration driver
// stays sequential, exactly as the paper leaves it in Fortran. The region
// uses worksharing loops with nowait chaining where the static partition
// makes it safe, and reductions on both the region's loops — the clause
// inventory Section V-A lists.
//
// Unlike the frozen serial reference (cg.go) and the pinned goroutine
// baseline, the omp flavour tunes its per-thread code: partial sums live in
// a register for the whole block, and the SpMV reslices each CSR row once.
// None of it reorders a floating-point operation, so ζ and rnorm are those
// of the untuned loops, bit for bit (TestParallelBitsPinned).

// spmvRowsOMP is spmvRows with each CSR row resliced once: the row's values
// and columns are bounds-checked at the reslice, so the only check left per
// nonzero is the gather w[col]. The sum runs in the same order, so q is
// bit-identical to spmvRows'.
func spmvRowsOMP(m *Matrix, w, q []float64, lo, hi int) {
	a, col, rowStr := m.A, m.ColIdx, m.RowStr[lo:hi+1]
	q = q[lo:hi]
	for j := range q {
		av := a[rowStr[j]:rowStr[j+1]]
		cv := col[rowStr[j]:rowStr[j+1]]
		cv = cv[:len(av)]
		sum := 0.0
		for k, v := range av {
			sum += v * w[cv[k]]
		}
		q[j] = sum
	}
}

// ConjGradOMP is conj_grad on the OpenMP runtime. The caller provides the
// per-run scratch vectors.
//
// Each fused loop is the lowering of `for nowait reduction(+:…)`: it runs
// nowait, and omp.Reduce folds the team's partials into the shared scalar
// in thread order at the reduction's barrier, the loop's one rendezvous.
// The fold is 0 + s0 + s1 + …, so the result is the same at a team size on
// every run. As in NPB-OMP's conj_grad, the master resets the scalars at
// the top of each iteration.
func ConjGradOMP(m *Matrix, x, z, p, q, r []float64, threads int) float64 {
	n := int64(m.N)
	var rho, rho0, d, sum float64

	omp.Parallel(func(t *omp.Thread) {
		// Initialisation: each thread owns the same static block in
		// every loop of the region, so nowait chaining between loops
		// over own-rows data is safe. Each loop body sums into a
		// register seeded from the thread's partial and stores it back
		// once per block.
		local := 0.0
		omp.ForRange(t, n, func(lo, hi int64) {
			s := local
			for j := lo; j < hi; j++ {
				q[j] = 0
				z[j] = 0
				r[j] = x[j]
				p[j] = r[j]
				s += r[j] * r[j]
			}
			local = s
		}, omp.NoWait())
		omp.Reduce(t, omp.ReduceSum, &rho, local)

		for cgit := 0; cgit < cgitmax; cgit++ {
			// Every thread read rho0 and rho before the barrier that
			// ended the previous iteration (or read nothing yet).
			if t.Master() {
				rho0 = rho
				d = 0
				rho = 0
			}

			// q = A·p fused with d = p·q over own rows; the
			// preceding barrier guarantees p is complete.
			local = 0
			omp.ForRange(t, n, func(lo, hi int64) {
				spmvRowsOMP(m, p, q, int(lo), int(hi))
				s := local
				for j := lo; j < hi; j++ {
					s += p[j] * q[j]
				}
				local = s
			}, omp.NoWait())
			omp.Reduce(t, omp.ReduceSum, &d, local)
			alpha := rho0 / d

			// z, r updates fused with the next rho — own rows only.
			local = 0
			omp.ForRange(t, n, func(lo, hi int64) {
				s := local
				for j := lo; j < hi; j++ {
					z[j] += alpha * p[j]
					r[j] -= alpha * q[j]
					s += r[j] * r[j]
				}
				local = s
			}, omp.NoWait())
			omp.Reduce(t, omp.ReduceSum, &rho, local)
			beta := rho / rho0

			// p update; the implicit barrier publishes p for the
			// gather in the next iteration's SpMV.
			omp.ForRange(t, n, func(lo, hi int64) {
				for j := lo; j < hi; j++ {
					p[j] = r[j] + beta*p[j]
				}
			})
		}

		// Final residual ‖x − A·z‖; z is complete (barriers above).
		local = 0
		omp.ForRange(t, n, func(lo, hi int64) {
			spmvRowsOMP(m, z, r, int(lo), int(hi))
			s := local
			for j := lo; j < hi; j++ {
				dd := x[j] - r[j]
				s += dd * dd
			}
			local = s
		}, omp.NoWait())
		omp.Reduce(t, omp.ReduceSum, &sum, local)
	}, omp.NumThreads(threads))

	return math.Sqrt(sum)
}

// RunParallel executes the benchmark with conj_grad on the OpenMP runtime.
func RunParallel(class npb.Class, threads int) (*Stats, error) {
	m, err := MakeA(class)
	if err != nil {
		return nil, err
	}
	if threads < 1 {
		threads = 1
	}
	return runWith(class, m, threads, func(x, z, p, q, r []float64) float64 {
		return ConjGradOMP(m, x, z, p, q, r, threads)
	})
}
