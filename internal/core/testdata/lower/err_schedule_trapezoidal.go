package p

func f(n int, a []float64) {
	//omp parallel
	{
		//omp for schedule(trapezoidal)
		for i := 0; i < n; i++ {
			a[i] = float64(i)
		}
	}
}
