// Stencil: 2-D Jacobi heat diffusion — the archetypal worksharing-loop
// workload the paper's introduction motivates — run under each schedule
// kind to show their behaviour on a balanced loop, plus a deliberately
// imbalanced variant where dynamic/guided scheduling earns its keep.
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"math"

	"gomp/omp"
)

const (
	nx, ny = 512, 512
	steps  = 100
)

func runGrid(threads int, sched omp.SchedKind, chunk int64) (float64, float64) {
	a := make([]float64, nx*ny)
	b := make([]float64, nx*ny)
	// Hot left edge, cold elsewhere.
	for i := 0; i < nx; i++ {
		a[i*ny] = 100
		b[i*ny] = 100
	}
	start := omp.GetWtime()
	omp.Parallel(func(t *omp.Thread) {
		for s := 0; s < steps; s++ {
			// Ping-pong by step parity, chosen thread-locally so no
			// shared state is mutated between barriers.
			src, dst := a, b
			if s%2 == 1 {
				src, dst = b, a
			}
			omp.ForRange(t, nx-2, func(lo, hi int64) {
				for i := int(lo) + 1; i <= int(hi); i++ {
					row := i * ny
					for j := 1; j < ny-1; j++ {
						dst[row+j] = 0.25 * (src[row+j-1] + src[row+j+1] + src[row-ny+j] + src[row+ny+j])
					}
				}
			}, omp.Schedule(sched, chunk))
		}
	}, omp.NumThreads(threads))
	elapsed := omp.GetWtime() - start

	// steps is even, so the final sweep (s = steps-1, odd) wrote into a.
	total := 0.0
	for _, v := range a {
		total += v
	}
	return elapsed, total
}

func main() {
	fmt.Printf("2-D Jacobi %dx%d, %d sweeps\n\n", nx, ny, steps)
	serialT, serialSum := runGrid(1, omp.Static, 0)
	fmt.Printf("%-22s %8.1f ms  (checksum %.3f)\n", "serial", serialT*1e3, serialSum)

	threads := omp.GetNumProcs()
	if threads > 8 {
		threads = 8
	}
	type cfg struct {
		name  string
		kind  omp.SchedKind
		chunk int64
	}
	for _, c := range []cfg{
		{"static", omp.Static, 0},
		{"static,8", omp.Static, 8},
		{"dynamic,8", omp.Dynamic, 8},
		{"guided,4", omp.Guided, 4},
	} {
		t, sum := runGrid(threads, c.kind, c.chunk)
		ok := math.Abs(sum-serialSum) < 1e-6*math.Abs(serialSum)
		fmt.Printf("%-22s %8.1f ms  speedup %4.2f  checksum ok=%v\n",
			fmt.Sprintf("%d threads %s", threads, c.name), t*1e3, serialT/t, ok)
	}

	// Imbalanced workload: per-iteration cost grows with the index, the
	// case where schedule(static) leaves the last thread holding the bag.
	fmt.Printf("\nimbalanced loop (cost ∝ i²), %d threads:\n", threads)
	work := func(i int64) float64 {
		s := 0.0
		for k := int64(0); k < i*i/1024+1; k++ {
			s += math.Sqrt(float64(k))
		}
		return s
	}
	for _, c := range []cfg{
		{"static", omp.Static, 0},
		{"dynamic,16", omp.Dynamic, 16},
		{"guided,16", omp.Guided, 16},
	} {
		sum := 0.0
		start := omp.GetWtime()
		omp.Parallel(func(t *omp.Thread) {
			local := 0.0
			omp.For(t, 4096, func(i int64) { local += work(i) }, omp.Schedule(c.kind, c.chunk), omp.NoWait())
			omp.Reduce(t, omp.ReduceSum, &sum, local)
		}, omp.NumThreads(threads))
		fmt.Printf("%-22s %8.1f ms (sum %.0f)\n", c.name, (omp.GetWtime()-start)*1e3, sum)
	}
}
