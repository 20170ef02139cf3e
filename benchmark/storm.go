package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"gomp/omp"
)

// region_storm: what gompcc emits for every `//omp parallel for`, twenty
// thousand times back to back from one goroutine — a fork, a static loop
// over a short saxpy, the implicit barrier, the join. The bodies are too
// short to hide any of it.

const (
	stormRegions = 20_000
	stormMinLen  = 256
	stormMaxLen  = 4096
	stormA       = 2.0
)

type stormInstance struct {
	sizes []int32   // trip count of each region, from the seed
	x     []float64 // small integers, so every sum below is exact
	want  []float64
	y     [nFlavours][]float64
	elems float64 // Σ sizes
}

func genStorm(seed uint64) *stormInstance {
	r := rand.New(rand.NewPCG(seed, 0x73746f726d)) // "storm"
	s := &stormInstance{sizes: make([]int32, stormRegions), x: make([]float64, stormMaxLen), want: make([]float64, stormMaxLen)}
	for i := range s.x {
		s.x[i] = float64(1 + r.IntN(7))
	}
	// Oracle: element i is updated once by every region longer than i, so
	// y[i] = a·x[i]·#{regions with size > i}, from a histogram of sizes.
	longer := make([]int, stormMaxLen+1)
	for i := range s.sizes {
		n := stormMinLen + r.IntN(stormMaxLen-stormMinLen+1)
		s.sizes[i] = int32(n)
		s.elems += float64(n)
		longer[n-1]++
	}
	for i := stormMaxLen - 1; i >= 0; i-- {
		longer[i] += longer[i+1]
		s.want[i] = stormA * s.x[i] * float64(longer[i])
	}
	for f := range s.y {
		s.y[f] = make([]float64, stormMaxLen)
	}
	return s
}

func saxpy(y, x []float64, lo, hi int64) {
	for i := lo; i < hi; i++ {
		y[i] += stormA * x[i]
	}
}

func (s *stormInstance) solve(flavour, threads int) (float64, error) {
	x, y := s.x, s.y[flavour]
	clear(y)
	start := omp.GetWtime()
	switch flavour {
	case fOmp:
		nt := omp.NumThreads(threads)
		for _, n := range s.sizes {
			omp.ParallelForRange(int64(n), func(_ *omp.Thread, lo, hi int64) { saxpy(y, x, lo, hi) }, nt)
		}
	case fSerial:
		for _, n := range s.sizes {
			saxpy(y, x, 0, int64(n))
		}
	case fBaseline:
		// The plain-Go parallel loop: one goroutine per block, a WaitGroup.
		var wg sync.WaitGroup
		for _, n := range s.sizes {
			block := (int64(n) + int64(threads) - 1) / int64(threads)
			for lo := int64(0); lo < int64(n); lo += block {
				wg.Add(1)
				go func() {
					saxpy(y, x, lo, min(lo+block, int64(n)))
					wg.Done()
				}()
			}
			wg.Wait()
		}
	}
	return omp.GetWtime() - start, nil
}

func (s *stormInstance) verify(flavour int) error {
	for i, v := range s.y[flavour] {
		if v != s.want[i] {
			return fmt.Errorf("%s storm: y[%d] = %v, size histogram gives %v", flavourNames[flavour], i, v, s.want[i])
		}
	}
	return nil
}

// work: a multiply and an add per element; x and y read, y written.
func (s *stormInstance) work() (ops, bytes float64) { return 2 * s.elems, 24 * s.elems }

func (s *stormInstance) close() {}
