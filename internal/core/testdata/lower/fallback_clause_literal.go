package p

var counter int

//omp threadprivate(counter)

// A clause operand holding a composite or function literal is kept as
// written, threadprivate variables replaced, for format.Source to lay out.
func clauseLiterals(a []int) {
	//omp parallel num_threads(len([]int{counter, 2, counter}))
	{
		counter++
	}
	//omp parallel for if(func() bool { return len(a) > 1 }())
	for i := 0; i < len(a); i++ {
		a[i] = i
	}
}
