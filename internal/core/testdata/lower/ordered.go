package p

import "fmt"

func emit(n int, out []int) {
	//omp parallel
	{
		//omp for ordered schedule(dynamic,1)
		for i := 0; i < n; i++ {
			v := i * i
			//omp ordered
			{
				out = append(out, v)
			}
		}
	}
	//omp parallel for ordered schedule(static,1) collapse(2)
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			//omp ordered
			{
				fmt.Println(i, j)
			}
		}
	}
}

func orphanOrdered(v int) {
	//omp ordered
	{
		fmt.Println(v)
	}
}
