package p

// parallel for collapse(2) stacked over tile: the worksharing loop consumes
// the tile-grid loops; a plain for takes only the outer grid loop.
func matmul(c, a, b []float64, n int) {
	//omp parallel for collapse(2) schedule(dynamic,1)
	//omp tile sizes(8,16)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = sum
		}
	}
}

func rowsum(m []float64, n int) float64 {
	total := 0.0
	//omp parallel
	{
		//omp for reduction(+:total)
		//omp tile sizes(4,4)
		for i := n - 1; i >= 0; i-- {
			for j := 0; j <= n-1; j += 2 {
				total += m[i*n+j]
			}
		}
	}
	return total
}

func serial(v []int) {
	//omp tile sizes(32)
	for i := 0; i < len(v); i++ {
		if v[i] == 0 {
			continue
		}
		v[i]++
	}
	//omp unroll partial(2)
	//omp tile sizes(16)
	for i := 0; i < len(v); i++ {
		v[i] *= 2
	}
}
