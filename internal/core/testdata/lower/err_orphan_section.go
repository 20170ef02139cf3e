package p

func f(n int) {
	//omp parallel
	{
		//omp section
		{
			_ = n
		}
	}
}
