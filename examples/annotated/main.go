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
// Serial and transformed runs print identical output: the reduction
// over integers is order-insensitive, so the parallel result is exact.
package main

import "fmt"

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
