// Cancellation and the v2 API: what an external program sees when it
// imports the top-level omp package — no internal/ paths, and OpenMP
// cancellation bound to context.Context. ParallelErr and WithContext have
// no pragma spelling, so this example calls the runtime directly; each
// loop is a ForRange, the hand-written form of what `//omp for` lowers to.
//
// Three scenarios:
//
//  1. A request with a deadline: a loop under ParallelErr and WithContext
//     returns context.DeadlineExceeded when the budget expires mid-loop,
//     the bounded-latency shape of a production request handler.
//
//  2. A parallel search: the first thread to find the needle cancels the
//     worksharing loop, and the team stops dispatching chunks.
//
//  3. A failing element: ParallelErr turns one bad input into an error
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
	err := omp.ParallelErr(func(t *omp.Thread) error {
		omp.ForRange(t, trip, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				time.Sleep(50 * time.Microsecond) // stand-in for per-item work
			}
		}, omp.Schedule(omp.Dynamic, 8), omp.NoWait())
		return nil
	}, omp.NumThreads(4), omp.WithContext(ctx))
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
	err = omp.ParallelErr(func(t *omp.Thread) error {
		var bad error
		omp.ForRange(t, int64(len(data)), func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				if data[i] < 0 {
					bad = fmt.Errorf("element %d: %w", i, errBad)
					omp.Cancel(t, omp.CancelParallel) // no further chunks
					return
				}
			}
		}, omp.NoWait())
		return bad
	}, omp.NumThreads(4))
	fmt.Printf("validation: err=%v (%t)\n", err, errors.Is(err, errBad))
}
