package p

func broadcast() int {
	seed := 0
	total := 0
	//omp parallel firstprivate(seed)
	{
		//omp single copyprivate(seed)
		{
			seed = 42
		}
		//omp single nowait
		{
			total++
		}
		//omp single copyprivate(seed) nowait private(total)
		{
			seed++
		}
		//omp master
		{
			total += seed
		}
		//omp critical
		{
			total++
		}
		//omp atomic
		total += 2
	}
	return total
}

func orphaned(v *int) {
	//omp single
	{
		*v = 1
	}
	//omp master
	{
		*v = 2
	}
	//omp atomic
	*v++
	//omp barrier
}
