// Stencil: 2-D Jacobi heat diffusion — the archetypal worksharing-loop
// workload the paper's introduction motivates — run under each schedule
// kind to show their behaviour on a balanced loop, plus a deliberately
// imbalanced variant where dynamic/guided scheduling earns its keep.
//
// The file is //omp pragma source. Its loops carry schedule(runtime), so
// omp.SetSchedule picks the schedule each run uses, as omp_set_schedule
// does in C. As written it runs serially:
//
//	go run ./examples/stencil
//
// Through the preprocessor the loops run on a thread team:
//
//	go run ./cmd/gompcc -module examples -outdir build -jobs 4
//	go run ./build/stencil
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

func runGrid(threads int) (float64, float64) {
	a := make([]float64, nx*ny)
	b := make([]float64, nx*ny)
	// Hot left edge, cold elsewhere.
	for i := 0; i < nx; i++ {
		a[i*ny] = 100
		b[i*ny] = 100
	}
	start := omp.GetWtime()
	//omp parallel num_threads(threads)
	{
		for s := 0; s < steps; s++ {
			// Ping-pong by step parity, chosen thread-locally so no
			// shared state is mutated between barriers.
			src, dst := a, b
			if s%2 == 1 {
				src, dst = b, a
			}
			//omp for schedule(runtime)
			for i := 1; i < nx-1; i++ {
				row := i * ny
				for j := 1; j < ny-1; j++ {
					dst[row+j] = 0.25 * (src[row+j-1] + src[row+j+1] + src[row-ny+j] + src[row+ny+j])
				}
			}
		}
	}
	elapsed := omp.GetWtime() - start

	// steps is even, so the final sweep (s = steps-1, odd) wrote into a.
	total := 0.0
	for _, v := range a {
		total += v
	}
	return elapsed, total
}

// imbalanced sums a loop whose per-iteration cost grows with the index,
// the case where schedule(static) leaves the last thread holding the bag.
func imbalanced(threads int) float64 {
	sum := 0.0
	//omp parallel for reduction(+:sum) schedule(runtime) num_threads(threads)
	for i := int64(0); i < 4096; i++ {
		for k := int64(0); k < i*i/1024+1; k++ {
			sum += math.Sqrt(float64(k))
		}
	}
	return sum
}

func main() {
	fmt.Printf("2-D Jacobi %dx%d, %d sweeps\n\n", nx, ny, steps)
	omp.SetSchedule(omp.Static, 0)
	serialT, serialSum := runGrid(1)
	fmt.Printf("%-22s %8.1f ms  (checksum %.3f)\n", "serial", serialT*1e3, serialSum)

	threads := min(omp.GetNumProcs(), 8)
	type cfg struct {
		name  string
		kind  omp.SchedKind
		chunk int
	}
	for _, c := range []cfg{
		{"static", omp.Static, 0},
		{"static,8", omp.Static, 8},
		{"dynamic,8", omp.Dynamic, 8},
		{"guided,4", omp.Guided, 4},
	} {
		omp.SetSchedule(c.kind, c.chunk)
		t, sum := runGrid(threads)
		ok := math.Abs(sum-serialSum) < 1e-6*math.Abs(serialSum)
		fmt.Printf("%-22s %8.1f ms  speedup %4.2f  checksum ok=%v\n",
			fmt.Sprintf("%d threads %s", threads, c.name), t*1e3, serialT/t, ok)
	}

	fmt.Printf("\nimbalanced loop (cost ∝ i²), %d threads:\n", threads)
	for _, c := range []cfg{
		{"static", omp.Static, 0},
		{"dynamic,16", omp.Dynamic, 16},
		{"guided,16", omp.Guided, 16},
	} {
		omp.SetSchedule(c.kind, c.chunk)
		start := omp.GetWtime()
		sum := imbalanced(threads)
		fmt.Printf("%-22s %8.1f ms (sum %.0f)\n", c.name, (omp.GetWtime()-start)*1e3, sum)
	}
}
