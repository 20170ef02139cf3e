// Cancellation and the v2 API: what an external program sees when it
// imports the top-level omp package — no internal/ paths, generic
// constructs, and OpenMP cancellation bound to context.Context.
//
// Three scenarios:
//
//  1. A request with a deadline: ParallelFor under WithContext returns
//     context.DeadlineExceeded when the budget expires mid-loop, the
//     bounded-latency shape of a production request handler.
//
//  2. A parallel search: the first thread to find the needle cancels the
//     worksharing loop, and the team stops dispatching chunks.
//
//  3. A failing element: ParallelForErr turns one bad input into an error
//     and cancels the rest of the team instead of crashing the process.
//
// Usage:
//
//	go run ./examples/cancel
package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gomp/omp"
)

func main() {
	// --- 1. deadline-bounded parallel work -----------------------------
	ctx, stop := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer stop()

	const trip = 1 << 40 // far more work than the deadline allows
	start := time.Now()
	err := omp.ParallelForErr(trip, func(t *omp.Thread, i int64) error {
		time.Sleep(50 * time.Microsecond) // stand-in for per-item work
		return nil
	}, omp.NumThreads(4), omp.Schedule(omp.Dynamic, 8), omp.WithContext(ctx))
	fmt.Printf("deadline run: err=%v after %v (deadline 25ms, %t)\n",
		err, time.Since(start).Round(time.Millisecond),
		errors.Is(err, context.DeadlineExceeded))

	// --- 2. cancel a search loop from inside ---------------------------
	omp.SetCancellation(true)
	haystack := make([]int, 4<<20)
	haystack[3<<20] = 42
	var found atomic.Int64
	found.Store(-1)
	omp.Parallel(func(t *omp.Thread) {
		omp.ForRange(t, int64(len(haystack)), func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				if haystack[i] == 42 {
					found.Store(i)
					omp.Cancel(t, omp.CancelFor)
					return
				}
			}
		}, omp.Schedule(omp.Dynamic, 4096))
	}, omp.NumThreads(4))
	fmt.Printf("search: found needle at %d\n", found.Load())

	// --- 3. an element error cancels the team --------------------------
	data := make([]float64, 1<<20)
	data[12345] = -1
	errBad := errors.New("negative input")
	err = omp.ParallelForErr(int64(len(data)), func(t *omp.Thread, i int64) error {
		if data[i] < 0 {
			return fmt.Errorf("element %d: %w", i, errBad)
		}
		return nil
	}, omp.NumThreads(4))
	fmt.Printf("validation: err=%v (%t)\n", err, errors.Is(err, errBad))

	// --- generic constructs over typed data ----------------------------
	type sample struct {
		raw, squared int
	}
	samples := make([]sample, 8)
	_ = omp.ForEach(samples, func(t *omp.Thread, i int64, s *sample) {
		s.raw = int(i)
		s.squared = int(i * i)
	}, omp.NumThreads(4))
	fmt.Printf("foreach: %v\n", samples)
}
