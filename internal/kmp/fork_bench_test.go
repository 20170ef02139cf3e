package kmp_test

import (
	"fmt"
	"testing"

	"gomp/internal/bench"
	"gomp/internal/kmp"
)

// BenchmarkCrossCoreFloor is the host's own latency: a padded two-goroutine
// atomic ping-pong, the floor under one fork plus one join. Read the fork
// benchmarks against it, not against a number from another machine.
func BenchmarkCrossCoreFloor(b *testing.B) {
	if bench.CrossCoreRoundTrip(b.N) == 0 {
		b.Skip("needs GOMAXPROCS >= 2")
	}
}

// Warm fork/join at the kmp layer — no omp wrappers, no loop body. This is
// the floor every higher-level construct pays; the allocs/op column is the
// regression guard for the zero-allocation fast path.
func BenchmarkForkJoin(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		n := n
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			body := func(t *kmp.Thread) {}
			kmp.ForkCall(kmp.Ident{Region: "bench"}, n, body) // warm the team
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kmp.ForkCall(kmp.Ident{Region: "bench"}, n, body)
			}
		})
	}
}
