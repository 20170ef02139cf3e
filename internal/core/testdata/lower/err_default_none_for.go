package p

func f(a []int) int {
	s := 0
	//omp parallel for default(none) shared(a)
	for i := 0; i < len(a); i++ {
		a[i]++
		s = a[i]
	}
	return s
}
