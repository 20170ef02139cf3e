package p

func f(n int) {
	//omp parallel
	{
		//omp for
		for i := 0; i < n; i++ {
			//omp ordered
			{
				_ = i
			}
		}
	}
}
