// Code generated by gompcc from _omp/parallel.go. DO NOT EDIT.

package cg

import omp "gomp/omp"

import (
	"math"

	"gomp/internal/npb"
)

// rowDot returns row j of A·w with the CSR row resliced once: the row's
// values and columns are bounds-checked at the reslice, so the only check
// left per nonzero is the gather w[col]. The sum runs in spmvRows' order,
// so the result is bit-identical to spmvRows'.
func rowDot(m *Matrix, w []float64, j int) float64 {
	lo, hi := m.RowStr[j], m.RowStr[j+1]
	av, cv := m.A[lo:hi], m.ColIdx[lo:hi]
	cv = cv[:len(av)]
	sum := 0.0
	for k, v := range av {
		sum += v * w[cv[k]]
	}
	return sum
}

// ConjGradOMP is conj_grad with OpenMP loop pragmas; the caller provides
// the per-run scratch vectors. As in the paper's port, only conj_grad is
// parallel ("around 95% of the runtime"); the power iteration stays serial.
// Each thread owns the same static rows in every loop, so the loops chain
// with nowait, and each reduction folds the team's partials at its one
// barrier in thread order, 0 + s0 + s1 + …: the same bits at a team size
// on every run. The fold starts from the shared scalar, so the master
// zeroes rho and d at the top of an iteration, as in NPB-OMP: after the
// barriers that follow every thread's last read of them, before the
// barrier of the loop that folds into them. The p update's barrier
// publishes p for the next SpMV. rowDot
// reorders no floating-point operation, so ζ and rnorm are those of the
// serial loops, bit for bit (TestParallelBitsPinned).
func ConjGradOMP(m *Matrix, x, z, p, q, r []float64, threads int) float64 {
	n := m.N
	var rho, rho0, d, sum float64

	{
		omp.Parallel(func(__omp_t *omp.Thread) {

			{
				__omp_lb0 := 0
				__omp_st0 := int64(1)
				__omp_trip := omp.TripCount(__omp_lb0, n, __omp_st0, false)
				__omp_red_rho := omp.ReduceIdentity(omp.ReduceSum, &rho)
				for __omp_clo, __omp_chi, __omp_ok := omp.ForStart(__omp_t, __omp_trip, omp.Loc("parallel.go", 43, "for")); __omp_ok; __omp_clo, __omp_chi, __omp_ok = omp.ForNext(__omp_t) {
					for __omp_k, j := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0); __omp_k < __omp_chi; __omp_k, j = __omp_k+1, omp.LoopVar(j, 1, __omp_st0) {

						q[j] = 0
						z[j] = 0
						r[j] = x[j]
						p[j] = r[j]
						__omp_red_rho += r[j] * r[j]

					}
				}
				omp.Reduce(__omp_t, omp.ReduceSum, &rho, __omp_red_rho)
			}

			for cgit := 0; cgit < cgitmax; cgit++ {
				{
					omp.Masked(__omp_t, func() {

						rho0 = rho
						d = 0
						rho = 0

					})
				}

				{
					__omp_lb0 := 0
					__omp_st0 := int64(1)
					__omp_trip := omp.TripCount(__omp_lb0, n, __omp_st0, false)
					__omp_red_d := omp.ReduceIdentity(omp.ReduceSum, &d)
					for __omp_clo, __omp_chi, __omp_ok := omp.ForStart(__omp_t, __omp_trip, omp.Loc("parallel.go", 60, "for")); __omp_ok; __omp_clo, __omp_chi, __omp_ok = omp.ForNext(__omp_t) {
						for __omp_k, j := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0); __omp_k < __omp_chi; __omp_k, j = __omp_k+1, omp.LoopVar(j, 1, __omp_st0) {

							q[j] = rowDot(m, p, j)
							__omp_red_d += p[j] * q[j]

						}
					}
					omp.Reduce(__omp_t, omp.ReduceSum, &d, __omp_red_d)
				}
				alpha := rho0 / d

				{
					__omp_lb0 := 0
					__omp_st0 := int64(1)
					__omp_trip := omp.TripCount(__omp_lb0, n, __omp_st0, false)
					__omp_red_rho := omp.ReduceIdentity(omp.ReduceSum, &rho)
					for __omp_clo, __omp_chi, __omp_ok := omp.ForStart(__omp_t, __omp_trip, omp.Loc("parallel.go", 67, "for")); __omp_ok; __omp_clo, __omp_chi, __omp_ok = omp.ForNext(__omp_t) {
						for __omp_k, j := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0); __omp_k < __omp_chi; __omp_k, j = __omp_k+1, omp.LoopVar(j, 1, __omp_st0) {

							z[j] += alpha * p[j]
							r[j] -= alpha * q[j]
							__omp_red_rho += r[j] * r[j]

						}
					}
					omp.Reduce(__omp_t, omp.ReduceSum, &rho, __omp_red_rho)
				}
				beta := rho / rho0

				{
					__omp_lb0 := 0
					__omp_st0 := int64(1)
					__omp_trip := omp.TripCount(__omp_lb0, n, __omp_st0, false)
					for __omp_clo, __omp_chi, __omp_ok := omp.ForStart(__omp_t, __omp_trip, omp.Loc("parallel.go", 75, "for")); __omp_ok; __omp_clo, __omp_chi, __omp_ok = omp.ForNext(__omp_t) {
						for __omp_k, j := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0); __omp_k < __omp_chi; __omp_k, j = __omp_k+1, omp.LoopVar(j, 1, __omp_st0) {

							p[j] = r[j] + beta*p[j]

						}
					}
					omp.Barrier(__omp_t)
				}
			}

			{
				__omp_lb0 := 0
				__omp_st0 := int64(1)
				__omp_trip := omp.TripCount(__omp_lb0, n, __omp_st0, false)
				__omp_red_sum := omp.ReduceIdentity(omp.ReduceSum, &sum)
				for __omp_clo, __omp_chi, __omp_ok := omp.ForStart(__omp_t, __omp_trip, omp.Loc("parallel.go", 81, "for")); __omp_ok; __omp_clo, __omp_chi, __omp_ok = omp.ForNext(__omp_t) {
					for __omp_k, j := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0); __omp_k < __omp_chi; __omp_k, j = __omp_k+1, omp.LoopVar(j, 1, __omp_st0) {

						r[j] = rowDot(m, z, j)
						dd := x[j] - r[j]
						__omp_red_sum += dd * dd

					}
				}
				omp.Reduce(__omp_t, omp.ReduceSum, &sum, __omp_red_sum)
			}

		}, omp.NumThreads(threads), omp.Loc("parallel.go", 41, "parallel"))
	}
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
