package main

import "fmt"

type tally uint16

// update runs atomic sites of every lowering path at once: native adds,
// the CAS loop over an expression reading x, floats and a named 16-bit
// type. Every combination is order-independent, and the float terms are
// exact in binary, so any interleaving gives the serial totals.
func update(n int) (int64, uint32, uint32, float64, tally, uint64) {
	var i64 int64
	u32, mask := uint32(1), uint32(0)
	var f64 float64
	t := tally(7)
	bits := uint64(1)
	//omp parallel for
	for i := 0; i < n; i++ {
		//omp atomic
		i64 += 3
		//omp atomic
		i64 += /* weight */ 2 * int64(i%3)
		//omp atomic
		i64 = i64 + 1 + 1
		//omp atomic
		i64++
		//omp atomic
		i64 ^= int64(i) << 40
		//omp atomic
		u32 *= 3
		//omp atomic
		mask |= 1 << (i % 32)
		//omp atomic
		f64 += 3
		//omp atomic
		f64 = f64 + 0.5 + 0.25
		//omp atomic
		f64++
		//omp atomic
		t += tally(i % 5)
		//omp atomic
		t--
		if i < 40 {
			//omp atomic
			bits <<= 1
		}
	}
	return i64, u32, mask, f64, t, bits
}

func main() {
	fmt.Println(update(1000))
}
