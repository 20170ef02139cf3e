package p

// cancel for inside for inside parallel plus a barrier: every barrier site
// of a file that uses cancellation doubles as a cancellation point.
func find(a []int, target int) int {
	found := -1
	//omp parallel
	{
		//omp for schedule(dynamic,1)
		for i := 0; i < len(a); i++ {
			if a[i] == target {
				//omp critical
				{
					found = i
				}
				//omp cancel for
			}
			//omp cancellation point for
		}
		//omp barrier
		//omp single
		{
			found++
		}
		//omp sections
		{
			//omp section
			{
				//omp cancel parallel if(found > 3)
			}
		}
	}
	return found
}

func group(t *omp.Thread, n int) {
	//omp taskgroup
	{
		//omp task
		{
			//omp cancel taskgroup
		}
		//omp taskloop grainsize(2)
		for i := 0; i < n; i++ {
			//omp cancellation point taskgroup
		}
	}
	//omp barrier
}
