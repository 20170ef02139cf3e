// Code generated by gompcc from _omp/parallel.go. DO NOT EDIT.

package ep

import omp "gomp/omp"

import "gomp/internal/npb"

// deviates is the uniform-deviate buffer, threadprivate: one 2·2^16-element
// array per thread, persisting across parallel regions. The paper notes its
// EP port uses the threadprivate directive for exactly this.
var __omp_tp_deviates = omp.NewThreadPrivate[scratch](nil)

// RunParallel executes EP with OpenMP pragmas: a region reduction folds the
// sums in thread order at the region's end, so a team size gives the same
// bits on every run, and the annulus counters are combined by the atomic
// directive, as in the paper's port.
func RunParallel(class npb.Class, threads int) (*Stats, error) {
	m, err := params(class)
	if err != nil {
		return nil, err
	}
	nn := int64(1) << (m - mk)
	st := &Stats{Class: class, Pairs: 1 << m, Threads: threads}
	var sx, sy float64

	var tm npb.Timer
	tm.Start()
	{
		__omp_red_sx := &sx
		__omp_red_sy := &sy
		omp.Parallel(func(__omp_t *omp.Thread) {
			sx := omp.ReduceIdentity(omp.ReduceSum, &sx)
			_ = sx
			sy := omp.ReduceIdentity(omp.ReduceSum, &sy)
			_ = sy

			var q [nq]int64
			{
				__omp_lb0 := int64(0)
				__omp_st0 := int64(1)
				__omp_trip := omp.TripCount(__omp_lb0, nn, __omp_st0, false)
				for __omp_clo, __omp_chi, __omp_ok := omp.ForStart(__omp_t, __omp_trip, omp.Schedule(omp.Static, 0), omp.Loc("parallel.go", 30, "for")); __omp_ok; __omp_clo, __omp_chi, __omp_ok = omp.ForNext(__omp_t) {
					for __omp_k, k := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0); __omp_k < __omp_chi; __omp_k, k = __omp_k+1, omp.LoopVar(k, 1, __omp_st0) {

						r := runBatch(k, &(*__omp_tp_deviates.Get(__omp_t)))
						sx += r.sx
						sy += r.sy
						for l := range q {
							q[l] += r.q[l]
						}

					}
				}
			}
			for l := range q {
				omp.AtomicAdd(&st.Q[l], q[l])
			}

			omp.Reduce(__omp_t, omp.ReduceSum, __omp_red_sx, sx)
			omp.Reduce(__omp_t, omp.ReduceSum, __omp_red_sy, sy)
		}, omp.NumThreads(threads), omp.Loc("parallel.go", 27, "parallel"))
	}
	tm.Stop()

	st.Seconds = tm.Seconds()
	st.Sx, st.Sy = sx, sy
	for _, c := range st.Q {
		st.Gc += c
	}
	return st, nil
}
