package p

func sweep(v []int, w int) int {
	hits := 0
	//omp parallel
	{
		//omp single
		{
			//omp taskloop grainsize(8) firstprivate(w) private(hits)
			for i := 0; i < len(v); i++ {
				v[i] += w
			}
			//omp taskloop num_tasks(4) nogroup untied priority(w) if(w > 0) final(w > 9) mergeable
			for i := len(v) - 1; i >= 0; i -= 2 {
				if v[i]%3 == 0 {
					//omp atomic
					hits++
				}
			}
			//omp taskwait
		}
	}
	return hits
}

func orphanLoop(v []int) {
	//omp taskloop
	for i := 0; i < len(v); i++ {
		//omp task
		{
			v[i]++
		}
	}
}
