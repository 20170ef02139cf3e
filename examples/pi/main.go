// Reductions tour, written as //omp pragma source: π by midpoint
// integration (the sum reduction), a geometric mean (the multiplication
// reduction) and a logical-AND validity check, each folded in thread order
// at the loop's end; then an atomic multiply, which `//omp atomic` lowers
// to the paper's Listing 6 compare-and-swap loop.
//
// As written the file is plain serial Go — the directives are comments:
//
//	go run ./examples/pi
//
// Through the preprocessor the same loops run on the omp runtime:
//
//	go run ./cmd/gompcc -module examples -outdir build -jobs 4
//	go run ./build/pi
//
// or inside a plain go build, with gompcc as the compiler's wrapper (the
// blank import below is what that needs: the go command plans the build
// from this source, which calls no omp function until it is transformed):
//
//	go build -o gompcc ./cmd/gompcc
//	go run -toolexec="$PWD/gompcc -toolexec" ./examples/pi
//
// Every build prints the same lines: each float is printed to fewer digits
// than a reordered parallel sum can move, and the atomic ladder only ever
// multiplies by powers of two.
package main

import (
	"fmt"
	"math"

	_ "gomp/omp"
)

func main() {
	const n = 10_000_000
	h := 1.0 / float64(n)

	// π = ∫₀¹ 4/(1+x²) dx — the canonical OpenMP reduction example. Each
	// thread sums its share privately, from the operator's identity.
	pi := 0.0
	//omp parallel for reduction(+:pi)
	for i := 0; i < n; i++ {
		x := h * (float64(i) + 0.5)
		pi += 4 / (1 + x*x)
	}
	pi *= h
	fmt.Printf("pi ≈ %.10f (error below 1e-12: %v)\n", pi, math.Abs(pi-math.Pi) < 1e-12)

	// Geometric mean via reduction(*:prod): the identity is 1.
	const m = 4096
	prod := 1.0
	//omp parallel for reduction(*:prod) num_threads(8)
	for i := 0; i < m; i++ {
		prod *= 1 + float64(i%5)/1e4
	}
	fmt.Printf("geometric mean of %d factors: %.9f\n", m, math.Pow(prod, 1.0/m))

	// reduction(&&:ok): every sample must satisfy the predicate.
	ok := true
	//omp parallel for reduction(&&:ok) num_threads(8)
	for i := 0; i < m; i++ {
		ok = ok && (i*i >= 0)
	}
	fmt.Printf("all samples valid: %v\n", ok)

	// Concurrent multiplications on one float64: no native atomic exists,
	// so the update becomes a load and a compare-and-swap retry loop.
	cell := 1.0
	//omp parallel for num_threads(8)
	for i := 0; i < 64; i++ {
		for _, f := range []float64{2, 0.5} {
			//omp atomic
			cell *= f
		}
	}
	fmt.Printf("atomic multiply ladder returned to %v (expected 1)\n", cell)
}
