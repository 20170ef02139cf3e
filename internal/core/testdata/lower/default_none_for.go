package p

// default(none) on a fused parallel for: the reduction and the loop's
// lastprivate cover the variables they name, though both clauses go to the
// loop half and default(none) to the region half.
func f(a []int) (int, int) {
	s, last := 0, 0
	//omp parallel for default(none) shared(a) reduction(+:s) lastprivate(last)
	for i := 0; i < len(a); i++ {
		a[i]++
		s += a[i]
		last = i
	}
	return s, last
}
