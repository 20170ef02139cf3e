// Quickstart: OpenMP loop directives in Go, written the way the paper's
// programs are — plain Go whose //omp comments the gompcc preprocessor
// lowers onto the omp runtime. As written the file runs serially:
//
//	go run ./examples/quickstart
//
// Through the preprocessor the same loops run on a thread team:
//
//	go run ./cmd/gompcc -module examples -outdir build -jobs 4
//	go run ./build/quickstart
//
// or inside a plain go build, with gompcc as the compiler's wrapper (the
// blank import below is what that needs: the go command plans the build
// from this source, which calls no omp function until it is transformed):
//
//	go build -o gompcc ./cmd/gompcc
//	go run -toolexec="$PWD/gompcc -toolexec" ./examples/quickstart
//
// Every build prints the same lines: the inputs are small multiples of
// powers of two, so every partial sum is exact and the order in which a
// parallel reduction folds them cannot move the result.
package main

import (
	"fmt"
	"math"

	_ "gomp/omp"
)

func main() {
	const n = 1 << 20
	a := make([]float64, n)
	b := make([]float64, n)
	//omp parallel for
	for i := 0; i < n; i++ {
		a[i] = float64(i%1000) / 1024
		b[i] = float64((i+1)%1000) / 512
	}

	// A dot product: each thread sums its share from the + identity, and
	// the partials fold into dot in thread order when the loop ends.
	dot := 0.0
	//omp parallel for reduction(+:dot) schedule(static)
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
	}
	fmt.Printf("dot product over %d elements: %.6f\n", n, dot)

	// A max reduction under a dynamic schedule on a team of four: the
	// largest |a[i]−b[i]| gap.
	gap := math.Inf(-1)
	//omp parallel for reduction(max:gap) schedule(dynamic,4096) num_threads(4)
	for i := 0; i < n; i++ {
		gap = max(gap, math.Abs(a[i]-b[i]))
	}
	fmt.Printf("largest gap: %.6f\n", gap)

	// A shared counter under an atomic update.
	above := 0
	//omp parallel for
	for i := 0; i < n; i++ {
		if a[i] > b[i] {
			//omp atomic
			above++
		}
	}
	fmt.Printf("elements with a > b: %d\n", above)
}
