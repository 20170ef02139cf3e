package p

func chain(seed int) int {
	var a, b, c int
	//omp parallel num_threads(2)
	{
		//omp single
		{
			//omp task depend(out:a)
			{
				a = seed + 1
			}
			//omp task depend(in:a) depend(out:b) priority(2) private(seed)
			{
				b = a * 2
			}
			//omp task depend(in:a,b) depend(inout:c) if(seed > 0) final(seed > 5) untied mergeable firstprivate(seed)
			{
				c = a + b + seed
				//omp taskyield
			}
			//omp taskwait
		}
	}
	return c
}

func orphanTask(v *int) {
	//omp task
	{
		*v = 1
	}
	//omp taskwait
	//omp taskyield
}
