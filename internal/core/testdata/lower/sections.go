package p

func split(x, y, z []float64, k float64) {
	//omp parallel num_threads(3)
	{
		//omp sections firstprivate(k)
		{
			for i := range x {
				x[i] += k
			}
			//omp section
			{
				for i := range y {
					y[i] -= k
				}
			}
			//omp section
			//omp critical(zlock)
			{
				z[0] = k
			}
		}
		//omp sections nowait
		{
			//omp section
			x[0] = 0
			//omp section
			y[0] = 0
		}
	}
}

func orphan(x []float64) {
	//omp sections
	{
		//omp section
		{
			x[0] = 1
		}
	}
}
