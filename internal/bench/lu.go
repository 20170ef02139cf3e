package bench

import "gomp/omp"

// Blocked right-looking LU factorisation (no pivoting) — the canonical
// dependence-DAG workload (the SparseLU/Cholesky family every tasking
// paper benchmarks). Per elimination step k over an NB×NB grid of B×B
// blocks:
//
//	lu0(k,k)               factor the diagonal block
//	fwd(k,j)   j>k         L(kk)⁻¹ · A(k,j)          after lu0
//	bdiv(i,k)  i>k         A(i,k) · U(kk)⁻¹          after lu0
//	bmod(i,j)  i,j>k       A(i,j) -= A(i,k)·A(k,j)   after bdiv(i,k), fwd(k,j)
//
// Two task formulations are compared:
//
//   - taskwait-per-level: the pre-OpenMP-4.0 formulation — spawn the
//     fwd/bdiv wave, taskwait, spawn the bmod wave, taskwait, next k. The
//     taskwait is a full barrier on the generator's children: the trailing
//     blocks of every wave idle the team, and no work from step k+1 can
//     overlap step k.
//
//   - dependence DAG: every task carries depend clauses on its input and
//     output blocks (the block anchors are the dependence addresses) and
//     the runtime releases each task the moment its true dependences
//     resolve — bmod(i,j) of step k can overlap bdiv/fwd of step k, and
//     lu0(k+1,k+1) starts as soon as bmod(k+1,k+1) finishes, while step
//     k's trailing updates are still in flight.
//
// Every formulation executes the identical per-block kernels on the same
// dataflow, so the factor is bitwise identical to the serial blocked
// sweep — verification is exact equality, no tolerance.

// Blocked-LU workload parameters (BenchmarkBlockedLU in the root package).
const (
	// LUN is the matrix order.
	LUN = 384
	// LUBlock is the block side; LUN must be a multiple.
	LUBlock = 24
	// LUNB is the block-grid side.
	LUNB = LUN / LUBlock
)

// NewLUMatrix returns the deterministic, diagonally dominant test matrix
// (dominance keeps pivot-free elimination well conditioned).
func NewLUMatrix() []float64 {
	a := make([]float64, LUN*LUN)
	seed := uint64(20240901)
	for i := range a {
		seed = seed*6364136223846793005 + 1442695040888963407
		a[i] = float64(seed>>11) / float64(1<<53)
	}
	for i := 0; i < LUN; i++ {
		a[i*LUN+i] += float64(LUN)
	}
	return a
}

// Block kernels over the flat row-major matrix; (bi,bj) anchors at
// a[bi*LUBlock*LUN + bj*LUBlock].

func lu0(a []float64, k int) {
	base := k*LUBlock*LUN + k*LUBlock
	for i := 0; i < LUBlock; i++ {
		piv := a[base+i*LUN+i]
		for r := i + 1; r < LUBlock; r++ {
			a[base+r*LUN+i] /= piv
			lri := a[base+r*LUN+i]
			for c := i + 1; c < LUBlock; c++ {
				a[base+r*LUN+c] -= lri * a[base+i*LUN+c]
			}
		}
	}
}

func fwd(a []float64, k, j int) {
	diag := k*LUBlock*LUN + k*LUBlock
	b := k*LUBlock*LUN + j*LUBlock
	for i := 0; i < LUBlock; i++ {
		for r := i + 1; r < LUBlock; r++ {
			lri := a[diag+r*LUN+i]
			for c := 0; c < LUBlock; c++ {
				a[b+r*LUN+c] -= lri * a[b+i*LUN+c]
			}
		}
	}
}

func bdiv(a []float64, i, k int) {
	diag := k*LUBlock*LUN + k*LUBlock
	b := i*LUBlock*LUN + k*LUBlock
	for c := 0; c < LUBlock; c++ {
		for m := 0; m < c; m++ {
			umc := a[diag+m*LUN+c]
			for r := 0; r < LUBlock; r++ {
				a[b+r*LUN+c] -= a[b+r*LUN+m] * umc
			}
		}
		ucc := a[diag+c*LUN+c]
		for r := 0; r < LUBlock; r++ {
			a[b+r*LUN+c] /= ucc
		}
	}
}

func bmod(a []float64, i, j, k int) {
	l := i*LUBlock*LUN + k*LUBlock
	u := k*LUBlock*LUN + j*LUBlock
	c0 := i*LUBlock*LUN + j*LUBlock
	for r := 0; r < LUBlock; r++ {
		for m := 0; m < LUBlock; m++ {
			arm := a[l+r*LUN+m]
			for c := 0; c < LUBlock; c++ {
				a[c0+r*LUN+c] -= arm * a[u+m*LUN+c]
			}
		}
	}
}

// LUSerial runs the blocked factorisation serially — the reference every
// parallel formulation must match bitwise.
func LUSerial(a []float64) {
	for k := 0; k < LUNB; k++ {
		lu0(a, k)
		for j := k + 1; j < LUNB; j++ {
			fwd(a, k, j)
		}
		for i := k + 1; i < LUNB; i++ {
			bdiv(a, i, k)
		}
		for i := k + 1; i < LUNB; i++ {
			for j := k + 1; j < LUNB; j++ {
				bmod(a, i, j, k)
			}
		}
	}
}

// LUTaskwait is the taskwait-per-level formulation.
func LUTaskwait(a []float64, threads int) {
	omp.Parallel(func(t *omp.Thread) {
		omp.Single(t, func() {
			for k := 0; k < LUNB; k++ {
				lu0(a, k)
				for j := k + 1; j < LUNB; j++ {
					j := j
					omp.Task(t, func(*omp.Thread) { fwd(a, k, j) })
				}
				for i := k + 1; i < LUNB; i++ {
					i := i
					omp.Task(t, func(*omp.Thread) { bdiv(a, i, k) })
				}
				omp.Taskwait(t)
				for i := k + 1; i < LUNB; i++ {
					for j := k + 1; j < LUNB; j++ {
						i, j := i, j
						omp.Task(t, func(*omp.Thread) { bmod(a, i, j, k) })
					}
				}
				omp.Taskwait(t)
			}
		})
	}, omp.NumThreads(threads))
}

// LUDAG is the dependence-DAG formulation: the whole factorisation is
// spawned up front, ordering expressed purely through depend options on
// the block anchors.
func LUDAG(a []float64, threads int) {
	tok := func(bi, bj int) *float64 { return &a[bi*LUBlock*LUN+bj*LUBlock] }
	omp.Parallel(func(t *omp.Thread) {
		omp.Single(t, func() {
			for k := 0; k < LUNB; k++ {
				k := k
				omp.Task(t, func(*omp.Thread) { lu0(a, k) },
					omp.DependInOut(tok(k, k)))
				for j := k + 1; j < LUNB; j++ {
					j := j
					omp.Task(t, func(*omp.Thread) { fwd(a, k, j) },
						omp.DependIn(tok(k, k)),
						omp.DependInOut(tok(k, j)))
				}
				for i := k + 1; i < LUNB; i++ {
					i := i
					omp.Task(t, func(*omp.Thread) { bdiv(a, i, k) },
						omp.DependIn(tok(k, k)),
						omp.DependInOut(tok(i, k)))
				}
				for i := k + 1; i < LUNB; i++ {
					for j := k + 1; j < LUNB; j++ {
						i, j := i, j
						omp.Task(t, func(*omp.Thread) { bmod(a, i, j, k) },
							omp.DependIn(tok(i, k)),
							omp.DependIn(tok(k, j)),
							omp.DependInOut(tok(i, j)))
					}
				}
			}
			omp.Taskwait(t)
		})
	}, omp.NumThreads(threads))
}

// LUMaxDiff returns the largest absolute elementwise difference.
func LUMaxDiff(a, b []float64) float64 {
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
