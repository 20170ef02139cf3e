// Annotated: the smallest example whose own source carries the pragmas
// (quickstart, pi and stencil are the others); this file is the thing
// the preprocessor consumes. As written it is plain serial Go — the
// directives are comments — so it runs unmodified:
//
//	go run ./examples/annotated
//
// and it is what the module build driver transforms; CI self-hosts
// gompcc over examples/:
//
//	go run ./cmd/gompcc -module examples -outdir build -jobs 4
//	go run ./build/annotated
//
// or inside a plain go build, with gompcc as the compiler's wrapper (the
// blank import below is what that needs: the go command plans the build
// from this source, which calls no omp function until it is transformed):
//
//	go build -o gompcc ./cmd/gompcc
//	go run -toolexec="$PWD/gompcc -toolexec" ./examples/annotated
//
// Serial and transformed builds print identical output: the reduction
// over integers is order-insensitive, so the parallel result is exact.
package main

import (
	"fmt"

	_ "gomp/omp"
)

func main() {
	const n = 100000

	sum := 0
	//omp parallel for reduction(+:sum) schedule(static)
	for i := 0; i < n; i++ {
		sum += i
	}
	fmt.Println("sum", sum)

	squares := make([]int, 8)
	//omp parallel for schedule(guided,2)
	for i := 0; i < len(squares); i++ {
		squares[i] = i * i
	}
	fmt.Println("squares", squares)
}
