package omp

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// The serving guarantee at the public API: once a team is warm, a
// non-cancellable Parallel region — with or without the common options —
// allocates nothing per region. This is the property that lets a
// request-per-region server run at a steady heap size. CI runs this test;
// it is the regression guard for the whole fork fast path (pooled teams,
// pooled configs, cached options, hoisted closures).
func TestParallelWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops items at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{1, 2} {
		n := n
		t.Run(fmt.Sprintf("threads=%d", n), func(t *testing.T) {
			body := func(t *Thread) {}
			Parallel(body, NumThreads(n)) // spawn workers, prime pools
			if got := testing.AllocsPerRun(100, func() {
				Parallel(body, NumThreads(n))
			}); got != 0 {
				t.Fatalf("warm Parallel(NumThreads(%d)): %.1f allocs/region, want 0", n, got)
			}
		})
	}
}

// A worksharing loop must stay allocation-free too, in both spellings: a
// ForRange inside a Parallel region, which is what gompcc emits for
// `//omp parallel for` (implicit barrier and static scheduling run entirely
// on team-owned state), and the fused ParallelFor/ParallelForRange the
// benchmark harness calls, whose loop travels in the runtime's region
// descriptor rather than in a wrapper closure. The bodies are built once, so
// any allocation counted is the runtime's own.
func TestParallelForRangeWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops items at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var data [256]float64
	sums := [2]struct {
		v float64
		_ [56]byte
	}{}
	sum := func(t *Thread, lo, hi int64) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += data[i]
		}
		sums[t.Tid].v += s
	}
	region := func(t *Thread) {
		ForRange(t, int64(len(data)), func(lo, hi int64) { sum(t, lo, hi) })
	}
	iter := func(t *Thread, i int64) { sums[t.Tid].v += data[i] }
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Parallel+ForRange", func() { Parallel(region, NumThreads(2)) }},
		{"ParallelForRange", func() { ParallelForRange(int64(len(data)), sum, NumThreads(2)) }},
		{"ParallelFor", func() { ParallelFor(int64(len(data)), iter, NumThreads(2)) }},
		{"ParallelForRange/dynamic", func() {
			ParallelForRange(int64(len(data)), sum, NumThreads(2), dynamic8)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // spawn workers, prime pools
			if got := testing.AllocsPerRun(100, tc.run); got != 0 {
				t.Fatalf("warm %s: %.1f allocs/region, want 0", tc.name, got)
			}
		})
	}
}

// Schedule builds a fresh Option per call; a caller on the zero-alloc path
// hoists it, as it hoists the body.
var dynamic8 = Schedule(Dynamic, 8)

// A reduction adds no allocation to a warm region: Reduce's fold closure
// stays on the stack, the deposit slot is a word the thread already has, and
// a team of one folds inline without building a slot list.
func TestReduceWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops items at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var data [256]float64
	for i := range data {
		data[i] = float64(i)
	}
	var sum float64
	var all bool
	region := func(t *Thread) {
		local := 0.0
		ForRange(t, int64(len(data)), func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				local += data[i]
			}
		}, NoWait())
		Reduce(t, ReduceSum, &sum, local)
		ReduceBool(t, ReduceLogicalAnd, &all, local >= 0)
	}
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", n), func(t *testing.T) {
			run := func() {
				sum, all = 0, true
				Parallel(region, NumThreads(n))
			}
			run() // spawn workers, prime pools
			if got := testing.AllocsPerRun(100, run); got != 0 {
				t.Fatalf("warm region with Reduce at T=%d: %.1f allocs/region, want 0", n, got)
			}
			if sum != 255*256/2 || !all {
				t.Fatalf("T=%d: sum %g all %v, want %d true", n, sum, all, 255*256/2)
			}
		})
	}
}
