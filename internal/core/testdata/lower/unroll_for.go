package p

// unroll under a worksharing loop: the inner loop of the for body is
// unrolled; partial(1) stacked directly under for is the identity; the
// bare and full forms pick by trip count.
func smooth(a []float64, w [4]float64) {
	//omp parallel
	{
		//omp for schedule(guided,2) lastprivate(w)
		for i := 4; i < len(a); i++ {
			acc := 0.0
			//omp unroll partial(2)
			for k := 0; k < 4; k++ {
				acc += w[k] * a[i-k]
			}
			a[i] = acc
		}
		//omp for
		//omp unroll partial(1)
		for i := 0; i < len(a); i++ {
			a[i] /= 2
		}
	}
}

func small(a []int, n int) {
	//omp unroll full
	for i := 0; i < 3; i++ {
		a[i] = i
	}
	//omp unroll
	for i := 10; i > 0; i -= 3 {
		a[i]--
	}
	//omp unroll
	for i := 0; i < n; i++ {
		a[i]++
	}
}
