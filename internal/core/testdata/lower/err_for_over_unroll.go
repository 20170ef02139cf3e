package p

func f(a []int) {
	//omp parallel for
	//omp unroll partial(2)
	for i := 0; i < len(a); i++ {
		a[i]++
	}
}
