package p

// A break ends only the thread's current chunk, so the sum would depend on
// the team size and the schedule.
func sumUntilNegative(a []int) int {
	s := 0
	//omp parallel for reduction(+:s)
	for i := 0; i < len(a); i++ {
		if a[i] < 0 {
			break
		}
		s += a[i]
	}
	return s
}
