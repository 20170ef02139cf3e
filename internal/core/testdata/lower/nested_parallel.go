package p

// parallel nested in parallel: the same-kind nesting the old pass ordering
// handled by replacing the innermost pragma first.
func nested(n int) int {
	hits := 0
	//omp parallel num_threads(2)
	{
		//omp parallel num_threads(n) if(n > 1) reduction(+:hits)
		{
			hits++
		}
		//omp barrier
	}
	return hits
}
