package p

// A standalone directive after a return can never run, and at the end of a
// function it would leave the function without a terminating statement.
func f() int {
	total := 0
	total++
	return total //omp barrier
}
