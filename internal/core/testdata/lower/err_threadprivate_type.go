package p

var counter int

//omp threadprivate(counter)

func f() []counter {
	return nil
}
