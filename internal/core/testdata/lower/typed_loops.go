package main

import "fmt"

type index int32

// batches has the shape of NPB EP's batch loop: an int64 loop variable the
// body uses as an int64.
func batches(nn int64) int64 {
	var sum int64
	//omp parallel for reduction(+:sum) schedule(static)
	for k := int64(0); k < nn; k++ {
		sum += weigh(k)
	}
	return sum
}

func weigh(k int64) int64 { return k*k%7 + k }

func grid(n int32, m uint) int64 {
	var total int64
	//omp parallel for collapse(2) reduction(+:total) schedule(dynamic, 2)
	for i := int32(1); i <= n; i++ {
		for j := m; j > 0; j-- {
			total += int64(i) * int64(j)
		}
	}
	return total
}

func tiles(n index) int64 {
	var total int64
	//omp parallel for collapse(2) reduction(+:total)
	//omp tile sizes(3,4)
	for i := index(0); i < n; i++ {
		for j := n; j > 0; j -= 2 {
			total += int64(i*100 + j)
		}
	}
	return total
}

func tasks(n int64) int64 {
	var total int64
	//omp parallel
	{
		//omp single
		{
			//omp taskloop grainsize(3)
			for k := n; k >= -n; k -= 3 {
				//omp atomic
				total += k * k
			}
		}
	}
	return total
}

func unrolled(n uint) uint {
	var s uint
	//omp unroll partial(3)
	for i := uint(0); i < n; i++ {
		s += i
	}
	//omp tile sizes(5)
	for i := n; i > 0; i-- {
		s += i * 2
	}
	return s
}

// assigned has the assignment form of the canonical loop: the loop
// variable is declared outside it, and the body uses it in its own type.
func assigned(a []int64) int64 {
	var s int64
	var i int64
	//omp parallel for reduction(+:s)
	for i = 0; i < int64(len(a)); i++ {
		s += a[i] * i
	}
	return s
}

// transformedAssigned tiles and unrolls the assignment form: each copy of
// the loop variable a transformation declares takes the declared
// variable's type, which the body uses as such.
func transformedAssigned(a []int64) int64 {
	var s int64
	var i int64
	//omp tile sizes(4)
	for i = 0; i < int64(len(a)); i++ {
		s += a[i] * i
	}
	var j, t int32
	//omp unroll partial(3)
	for j = 1; j <= int32(len(a)); j++ {
		t += j * int32(a[j-1])
	}
	var k, u int16
	//omp unroll full
	for k = 3; k > 0; k-- {
		u += k * int16(a[k])
	}
	s += int64(t) + int64(u)
	var r, c int64
	//omp parallel for collapse(2) reduction(+:s)
	//omp tile sizes(3,2)
	for r = 0; r < 5; r++ {
		for c = int64(len(a)) - 1; c >= 0; c -= 2 {
			s += a[c] * (r + 1)
		}
	}
	return s
}

func main() {
	a := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	fmt.Println(batches(1000), grid(7, 9), tiles(11), tasks(50), unrolled(23), assigned(a), transformedAssigned(a))
}
