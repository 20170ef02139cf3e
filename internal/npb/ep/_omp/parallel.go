package ep

import "gomp/internal/npb"

// deviates is the uniform-deviate buffer, threadprivate: one 2·2^16-element
// array per thread, persisting across parallel regions. The paper notes its
// EP port uses the threadprivate directive for exactly this.
var deviates scratch

//omp threadprivate(deviates)

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
	//omp parallel num_threads(threads) reduction(+:sx,sy)
	{
		var q [nq]int64
		//omp for schedule(static) nowait
		for k := int64(0); k < nn; k++ {
			r := runBatch(k, &deviates)
			sx += r.sx
			sy += r.sy
			for l := range q {
				q[l] += r.q[l]
			}
		}
		for l := range q {
			//omp atomic
			st.Q[l] += q[l]
		}
	}
	tm.Stop()

	st.Seconds = tm.Seconds()
	st.Sx, st.Sy = sx, sy
	for _, c := range st.Q {
		st.Gc += c
	}
	return st, nil
}
