// Tile walkthrough: the loop-transformation subsystem end to end, inside
// one process. A cache-blocked matmul annotated with the OpenMP 5.1
// stacked-directive idiom —
//
//	//omp parallel for collapse(2)
//	//omp tile sizes(32,32)
//
// — is pushed through the preprocessor, the restructured source is
// printed (tile runs first, generating the 2k-deep grid/point nest; the
// parallel for then distributes the generated tile-grid loops, exactly
// the spec's "directive applies to the generated loop" rule), each
// directive is explained the way `gompcc -explain` would, and the same
// computation is executed through the runtime to show naive, tiled and
// tiled+parallel agree bitwise.
//
//	go run ./examples/tile
package main

import (
	"fmt"

	"gomp/internal/bench"
	"gomp/internal/core"
)

// annotated is the input program. Without the preprocessor it is valid
// serial Go — the pragmas are just comments.
const annotated = `package main

import "fmt"

func main() {
	const n = 200
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i % 13)
		b[i] = float64(i % 7)
	}
	//omp parallel for collapse(2)
	//omp tile sizes(32,32)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = sum
		}
	}
	fmt.Println(c[0], c[n*n-1])
}
`

func main() {
	fmt.Println("--- input (annotated Go) ---")
	fmt.Print(annotated)

	fmt.Println("\n--- directives (gompcc -explain) ---")
	infos, err := core.Inspect([]byte(annotated), core.Options{Filename: "tile.go"})
	if err != nil {
		panic(err)
	}
	for _, pi := range infos {
		fmt.Printf("tile.go:%d: //omp %s\n    %s\n", pi.Line, pi.Dir, core.Explain(pi.Dir))
	}

	fmt.Println("\n--- transformed (gompcc output) ---")
	res, err := core.Transform([]byte(annotated), core.Options{Filename: "tile.go"})
	if err != nil {
		panic(err)
	}
	fmt.Print(string(res.Output))

	// The same computation through the runtime: the three formulations of
	// internal/bench execute the identical floating-point chain per output
	// cell, so verification is exact equality — fringe tiles included,
	// since the bench order is deliberately not a multiple of the tile.
	fmt.Println("\n--- runtime check (naive vs tiled vs tiled+parallel) ---")
	a, b := bench.NewMMPair()
	ref := make([]float64, bench.MMN*bench.MMN)
	dst := make([]float64, bench.MMN*bench.MMN)
	bench.MMNaive(ref, a, b)
	bench.MMTiled(dst, a, b)
	fmt.Printf("tiled == naive bitwise: %v\n", bench.MMMaxDiff(dst, ref) == 0)
	bench.MMTiledParallel(dst, a, b, 4)
	fmt.Printf("tiled+parallel == naive bitwise: %v\n", bench.MMMaxDiff(dst, ref) == 0)
}
