package cg

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

	//omp parallel num_threads(threads)
	{
		//omp for nowait reduction(+:rho)
		for j := 0; j < n; j++ {
			q[j] = 0
			z[j] = 0
			r[j] = x[j]
			p[j] = r[j]
			rho += r[j] * r[j]
		}

		for cgit := 0; cgit < cgitmax; cgit++ {
			//omp master
			{
				rho0 = rho
				d = 0
				rho = 0
			}

			//omp for nowait reduction(+:d)
			for j := 0; j < n; j++ {
				q[j] = rowDot(m, p, j)
				d += p[j] * q[j]
			}
			alpha := rho0 / d

			//omp for nowait reduction(+:rho)
			for j := 0; j < n; j++ {
				z[j] += alpha * p[j]
				r[j] -= alpha * q[j]
				rho += r[j] * r[j]
			}
			beta := rho / rho0

			//omp for
			for j := 0; j < n; j++ {
				p[j] = r[j] + beta*p[j]
			}
		}

		//omp for nowait reduction(+:sum)
		for j := 0; j < n; j++ {
			r[j] = rowDot(m, z, j)
			dd := x[j] - r[j]
			sum += dd * dd
		}
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
