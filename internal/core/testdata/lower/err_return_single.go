package p

func f(a []int) int {
	//omp single
	{
		g := func() int { return 1 }
		_ = g
	}
	//omp critical
	{
		return 0
	}
	return -1
}
