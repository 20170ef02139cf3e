package p

var counter int

//omp threadprivate(counter)

var scale float64 = 1.5

//omp threadprivate(scale)

type box struct{ n int }

func bump(n int) float64 {
	//omp parallel if(counter > 0)
	{
		//omp for
		for i := 0; i < n; i++ {
			counter++
		}
		//omp critical
		{
			b := box{n: counter}
			counter = b.n
		}
	}
	return scale * float64(counter)
}
