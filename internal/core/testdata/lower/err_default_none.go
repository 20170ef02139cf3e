package p

func f(a []int) int {
	s := 0
	t := 0
	//omp parallel default(none) shared(s)
	{
		s++
		t++
	}
	return s + t
}
