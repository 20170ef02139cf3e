package p

// Slices in loop bounds go through the expression printer: gofmt spaces
// the colons of a slice with a binary index at depth 1 (a bound the
// lowering binds on a line of its own) and nowhere deeper.
func sliceBounds(a []float64, lo, hi int) float64 {
	s := 0.0
	//omp parallel for reduction(+:s)
	for i := 0; i < len(a[lo:hi]); i++ {
		s += a[lo+i]
	}
	//omp parallel for
	for i := len(a[lo+1 : hi]); i < len(a[lo+1:hi:hi]); i++ {
		a[i] = 0
	}
	//omp parallel for schedule(dynamic,2)
	for i := cap(a[:hi-lo]); i > len(a[lo:]); i-- {
		a[i-1] = s
	}
	return s
}
