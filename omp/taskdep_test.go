package omp_test

import (
	"fmt"
	"runtime"
	"testing"

	"gomp/omp"
)

// A 2-D wavefront through the public dependence options: block (i,j)
// depends on (i-1,j) and (i,j-1), the dataflow of a Gauss–Seidel sweep.
// The result must equal the serial sweep exactly — every task reads
// neighbour values the dependences guarantee are final.
func TestTaskDependWavefront(t *testing.T) {
	const n = 12
	for _, nth := range []int{1, 2, 4, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("threads=%d", nth), func(t *testing.T) {
			grid := make([]int, n*n)
			want := make([]int, n*n)
			at := func(g []int, i, j int) int {
				if i < 0 || j < 0 {
					return 1
				}
				return g[i*n+j]
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want[i*n+j] = at(want, i-1, j) + at(want, i, j-1)
				}
			}
			omp.Parallel(func(th *omp.Thread) {
				omp.Single(th, func() {
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							i, j := i, j
							opts := []omp.Option{omp.DependOut(&grid[i*n+j])}
							if i > 0 {
								opts = append(opts, omp.DependIn(&grid[(i-1)*n+j]))
							}
							if j > 0 {
								opts = append(opts, omp.DependIn(&grid[i*n+j-1]))
							}
							omp.Task(th, func(*omp.Thread) {
								grid[i*n+j] = at(grid, i-1, j) + at(grid, i, j-1)
							}, opts...)
						}
					}
				})
			}, omp.NumThreads(nth))
			for k := range grid {
				if grid[k] != want[k] {
					t.Fatalf("cell %d = %d, want %d", k, grid[k], want[k])
				}
			}
		})
	}
}

// The public options compose: priority, mergeable, untied and taskyield are
// accepted alongside dependences, outside and inside teams.
func TestTaskDependOptionSmoke(t *testing.T) {
	var x, y int
	// Outside any team: inline execution in program order.
	omp.Task(nil, func(*omp.Thread) { x = 1 },
		omp.DependOut(&x), omp.Priority(3), omp.Mergeable(), omp.Untied())
	omp.Task(nil, func(*omp.Thread) { y = x + 1 }, omp.DependIn(&x))
	omp.Taskyield(nil)
	if x != 1 || y != 2 {
		t.Fatalf("inline depend tasks: x=%d y=%d", x, y)
	}

	order := make([]int, 0, 3)
	omp.Parallel(func(th *omp.Thread) {
		omp.Single(th, func() {
			var cell int
			for i := 0; i < 3; i++ {
				i := i
				omp.Task(th, func(*omp.Thread) { order = append(order, i) },
					omp.DependInOut(&cell), omp.Priority(i+1), omp.Mergeable())
			}
			omp.Taskwait(th)
			omp.Taskyield(th)
		})
	}, omp.NumThreads(4))
	// inout chain: creation order despite ascending priorities —
	// dependences, not priorities, bind the order.
	for i, v := range order {
		if v != i {
			t.Fatalf("chain order = %v", order)
		}
	}
}

// An if(false) task with dependences executes undeferred but still after
// its predecessors, through the public surface.
func TestTaskDependUndeferred(t *testing.T) {
	var cell, got int
	omp.Parallel(func(th *omp.Thread) {
		omp.Single(th, func() {
			omp.Task(th, func(*omp.Thread) { cell = 41 }, omp.DependOut(&cell))
			omp.Task(th, func(*omp.Thread) { got = cell + 1 },
				omp.DependIn(&cell), omp.If(false))
			if got != 42 {
				t.Errorf("undeferred dependent task saw %d", got)
			}
		})
	}, omp.NumThreads(4))
}
