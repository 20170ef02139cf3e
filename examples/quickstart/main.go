// Quickstart: the v2 API in five minutes — the generic collection
// constructs for everyday use, then the directive-shaped primitives they
// are built from, which is what the preprocessor targets and what every
// NPB kernel in this repository is written with.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math"

	"gomp/omp"
)

func main() {
	const n = 1 << 20
	a := make([]float64, n)
	b := make([]float64, n)
	_ = omp.ForEach(a, func(t *omp.Thread, i int64, v *float64) {
		*v = float64(i%1000) * 0.001
		b[i] = float64((i+1)%1000) * 0.002
	})

	// A parallel dot product in one construct: ReduceInto seeds each
	// thread with the + identity, folds partials atomically, and writes
	// the result back — the v2 form of
	//   //omp parallel for reduction(+:dot) schedule(static)
	dot := 0.0
	start := omp.GetWtime()
	if err := omp.ReduceInto(omp.ReduceSum, &dot, n, func(t *omp.Thread, i int64, acc float64) float64 {
		return acc + a[i]*b[i]
	}); err != nil {
		panic(err)
	}
	elapsed := omp.GetWtime() - start

	serial := 0.0
	for i := range a {
		serial += a[i] * b[i]
	}
	fmt.Printf("dot product over %d elements on %d threads: %.6f (serial %.6f, diff %.2e) in %.3f ms\n",
		n, omp.GetMaxThreads(), dot, serial, math.Abs(dot-serial), elapsed*1e3)

	// The same shape written against the v1 primitives — what generated
	// code looks like: explicit region, worksharing loop, reduction fold.
	// Here with a dynamic schedule and a max reduction: find the largest
	// |a[i]−b[i]| gap.
	gap := math.Inf(-1)
	omp.Parallel(func(t *omp.Thread) {
		local := omp.ReduceIdentity(omp.ReduceMax, gap)
		omp.For(t, n, func(i int64) {
			if d := math.Abs(a[i] - b[i]); d > local {
				local = d
			}
		}, omp.Schedule(omp.Dynamic, 4096), omp.NoWait())
		omp.Reduce(t, omp.ReduceMax, &gap, local)
	}, omp.NumThreads(4))
	fmt.Printf("largest gap (4 threads, dynamic schedule): %.3f\n", gap)

	// Thread introspection inside a region, with panic-to-error recovery:
	// ParallelErr returns instead of crashing if a thread panics.
	err := omp.ParallelErr(func(t *omp.Thread) error {
		omp.Critical("io", func() {
			fmt.Printf("  hello from thread %d of %d\n", t.Tid, t.NumThreads())
		})
		return nil
	}, omp.NumThreads(3))
	if err != nil {
		panic(err)
	}
}
