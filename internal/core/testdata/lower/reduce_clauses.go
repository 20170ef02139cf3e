package p

var lo float64

// A loop-level logical reduction, a nowait reducing loop (which still takes
// the reduction's barrier), a two-variable clause and a region-level one.
func clauses(a []float64) (bool, float64, float64, float64, int) {
	ok, m := true, a[0]
	sq, ab := 0.0, 0.0
	n := 0
	//omp parallel reduction(+:n)
	{
		//omp for reduction(&&:ok)
		for i := 0; i < len(a); i++ {
			ok = ok && a[i] == a[i]
		}
		//omp for reduction(max:m) nowait
		for i := 0; i < len(a); i++ {
			if a[i] > m {
				m = a[i]
			}
		}
		//omp for reduction(+:sq,ab)
		for i := 0; i < len(a); i++ {
			sq += a[i] * a[i]
			ab += a[i]
		}
		n++
	}
	return ok, m, sq, ab, n
}

// An orphaned reducing loop: its team is the caller's, or none.
func orphanMin(a []float64) {
	//omp for reduction(min:lo)
	for i := 0; i < len(a); i++ {
		if a[i] < lo {
			lo = a[i]
		}
	}
}

// A region-level logical or.
func anyOf(a []bool) bool {
	hit := false
	//omp parallel reduction(||:hit)
	{
		for _, v := range a {
			hit = hit || v
		}
	}
	return hit
}
