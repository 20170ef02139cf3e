package ep

import (
	"gomp/internal/npb"
	"gomp/omp"
)

// tpScratch is the threadprivate uniform-deviate buffer: one 2·2^16-element
// array per thread, persisting across parallel regions — the paper notes
// the EP port uses the threadprivate directive for exactly this.
var tpScratch = omp.NewThreadPrivate[scratch](nil)

// RunParallel executes EP on the OpenMP runtime: the lowering of
//
//	//omp parallel for reduction(+:sx,sy) schedule(static)
//	for k := 0; k < nn; k++ { … }
//
// with the sums folded in thread order at the loop's barrier (omp.Reduce),
// so a team size gives the same bits on every run, the annulus counters
// combined by the atomic directive's lowering (as in the paper's port)
// and the scratch array threadprivate.
func RunParallel(class npb.Class, threads int) (*Stats, error) {
	m, err := params(class)
	if err != nil {
		return nil, err
	}
	nn := int64(1) << (m - mk)
	st := &Stats{Class: class, Pairs: 1 << m, Threads: threads}

	var q [nq]int64

	var tm npb.Timer
	tm.Start()
	omp.Parallel(func(t *omp.Thread) {
		buf := tpScratch.Get(t)
		var localSx, localSy float64
		var localQ [nq]int64
		omp.ForRange(t, nn, func(lo, hi int64) {
			for k := lo; k < hi; k++ {
				r := runBatch(k, buf)
				localSx += r.sx
				localSy += r.sy
				for l := 0; l < nq; l++ {
					localQ[l] += r.q[l]
				}
			}
		}, omp.Schedule(omp.Static, 0), omp.NoWait())
		for l := 0; l < nq; l++ {
			if localQ[l] != 0 {
				// //omp atomic: one native add per counter.
				omp.AtomicAdd(&q[l], localQ[l])
			}
		}
		omp.Reduce(t, omp.ReduceSum, &st.Sx, localSx)
		omp.Reduce(t, omp.ReduceSum, &st.Sy, localSy)
	}, omp.NumThreads(threads))
	tm.Stop()

	st.Seconds = tm.Seconds()
	for l := 0; l < nq; l++ {
		st.Q[l] = q[l]
		st.Gc += st.Q[l]
	}
	return st, nil
}
