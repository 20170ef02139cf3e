package p

// Nested constructs whose omp.Loc lines must name the user's pragma lines.
func dot(a, b []float64, scale float64) float64 {
	s := 0.0
	//omp parallel for reduction(+:s) firstprivate(scale) schedule(static)
	for i := 0; i < len(a); i++ {
		s += scale * a[i] * b[i]
	}
	return s
}

func phases(a []float64, x float64) {
	//omp parallel private(x)
	{
		x = 2
		//omp for nowait schedule(dynamic,4)
		for i := 0; i < len(a); i++ {
			a[i] *= x
		}
		//omp for
		for i := 0; i < len(a); i++ {
			a[i] += x
		}
	}
}

func spawn(a []int) {
	//omp parallel
	{
		//omp single
		{
			//omp task firstprivate(a)
			{
				a[0]++
			}
			//omp taskgroup
			{
				//omp task
				{
					a[1]++
				}
			}
		}
	}
}
