package p

func f(a []int) int {
	//omp parallel
	{
		//omp for
		for i := 0; i < len(a); i++ {
			if a[i] < 0 {
				return i
			}
		}
	}
	return -1
}
