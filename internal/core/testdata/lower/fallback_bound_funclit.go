package p

// A loop bound holding a function literal is copied as written, for
// format.Source to lay out.
func boundLiteral(a []int) {
	//omp parallel for
	for i := 0; i < func() int { return len(a) }(); i++ {
		a[i] = i
	}
}
