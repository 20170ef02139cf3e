// Wavefront parallelism through task dependences: the scenario class the
// depend clause exists for. A Gauss–Seidel-style 2-D stencil sweep
//
//	u[i][j] = 0.25 * (u[i-1][j] + u[i][j-1] + u[i+1][j] + u[i][j+1])
//
// carries loop dependences on the updated values of the north and west
// neighbours, so no worksharing loop can parallelise the sweep directly.
// Blocked into B×B tiles, tile (I,J) may start as soon as tiles (I-1,J)
// and (I,J-1) are done — an anti-diagonal wavefront of ready tiles that
// widens, peaks, and narrows. One generator task spawns every tile with
//
//	//omp task depend(in: north, west) depend(out: self)
//
// equivalent omp.DependIn/DependOut options, and the runtime's dependence
// engine releases tiles the moment their two predecessors finish — no
// per-diagonal barrier, no idle threads at the narrow ends of the sweep.
//
// The taskwait-free DAG is compared against the classic level-synchronised
// formulation (one taskwait per anti-diagonal) and verified bitwise
// against the serial sweep: dependences only ever reorder independent
// tiles, so all three produce the identical float stream per tile.
//
// Run with:
//
//	go run ./examples/wavefront
package main

import (
	"fmt"
	"math"

	"gomp/omp"
)

const (
	n      = 512 // grid side (excluding the fixed boundary)
	block  = 32  // tile side
	nb     = n / block
	sweeps = 4
)

// grid is (n+2)² with a fixed boundary of ones.
func newGrid() []float64 {
	g := make([]float64, (n+2)*(n+2))
	for i := 0; i < n+2; i++ {
		g[i*(n+2)] = 1       // west boundary
		g[i*(n+2)+n+1] = 1   // east boundary
		g[i] = 1             // north boundary
		g[(n+1)*(n+2)+i] = 1 // south boundary
	}
	return g
}

// sweepTile runs the Gauss–Seidel update over tile (bi,bj), reading
// in-place updated north/west values — the dependence the wavefront obeys.
func sweepTile(g []float64, bi, bj int) {
	for i := bi*block + 1; i <= (bi+1)*block; i++ {
		for j := bj*block + 1; j <= (bj+1)*block; j++ {
			g[i*(n+2)+j] = 0.25 * (g[(i-1)*(n+2)+j] + g[i*(n+2)+j-1] +
				g[(i+1)*(n+2)+j] + g[i*(n+2)+j+1])
		}
	}
}

func serialSweep(g []float64) {
	for s := 0; s < sweeps; s++ {
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				sweepTile(g, bi, bj)
			}
		}
	}
}

// dagSweep spawns one task per tile per sweep with dependences on the
// north and west tiles of the same sweep and on the tile's own previous
// sweep (inout on self orders sweeps back to back without any barrier:
// sweep s+1 of tile (0,0) may start while sweep s is still draining the
// south-east corner).
func dagSweep(g []float64) {
	// One token per tile is the dependence address; the tokens outlive
	// every task of the run.
	tok := make([]byte, nb*nb)
	omp.Parallel(func(t *omp.Thread) {
		omp.Single(t, func() {
			for s := 0; s < sweeps; s++ {
				for bi := 0; bi < nb; bi++ {
					for bj := 0; bj < nb; bj++ {
						bi, bj := bi, bj
						opts := []omp.Option{omp.DependInOut(&tok[bi*nb+bj])}
						if bi > 0 {
							opts = append(opts, omp.DependIn(&tok[(bi-1)*nb+bj]))
						}
						if bj > 0 {
							opts = append(opts, omp.DependIn(&tok[bi*nb+bj-1]))
						}
						omp.Task(t, func(*omp.Thread) { sweepTile(g, bi, bj) }, opts...)
					}
				}
			}
			omp.Taskwait(t)
		})
	})
}

// levelSweep is the taskwait-per-anti-diagonal alternative the dependence
// DAG replaces: every tile of diagonal d = bi+bj is independent, but the
// taskwait serialises diagonal boundaries, idling threads whenever a
// diagonal is narrower than the team.
func levelSweep(g []float64) {
	omp.Parallel(func(t *omp.Thread) {
		omp.Single(t, func() {
			for s := 0; s < sweeps; s++ {
				for d := 0; d <= 2*(nb-1); d++ {
					for bi := 0; bi < nb; bi++ {
						bj := d - bi
						if bj < 0 || bj >= nb {
							continue
						}
						bi, bj := bi, bj
						omp.Task(t, func(*omp.Thread) { sweepTile(g, bi, bj) })
					}
					omp.Taskwait(t)
				}
			}
		})
	})
}

func maxDiff(a, b []float64) float64 {
	m := 0.0
	for k := range a {
		if d := math.Abs(a[k] - b[k]); d > m {
			m = d
		}
	}
	return m
}

func main() {
	serial := newGrid()
	t0 := omp.GetWtime()
	serialSweep(serial)
	serialT := omp.GetWtime() - t0

	level := newGrid()
	t0 = omp.GetWtime()
	levelSweep(level)
	levelT := omp.GetWtime() - t0

	dag := newGrid()
	t0 = omp.GetWtime()
	dagSweep(dag)
	dagT := omp.GetWtime() - t0

	fmt.Printf("wavefront %dx%d grid, %dx%d tiles, %d sweeps on %d threads\n",
		n, n, block, block, sweeps, omp.GetMaxThreads())
	fmt.Printf("  serial                 %8.2f ms\n", serialT*1e3)
	fmt.Printf("  taskwait per diagonal  %8.2f ms  (%.2fx)\n", levelT*1e3, serialT/levelT)
	fmt.Printf("  dependence DAG         %8.2f ms  (%.2fx)\n", dagT*1e3, serialT/dagT)
	fmt.Printf("  max |dag-serial| = %g, max |level-serial| = %g\n",
		maxDiff(dag, serial), maxDiff(level, serial))
	if maxDiff(dag, serial) != 0 || maxDiff(level, serial) != 0 {
		fmt.Println("MISMATCH: parallel sweeps diverged from serial")
	}
}
