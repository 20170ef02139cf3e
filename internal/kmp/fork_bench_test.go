package kmp_test

import (
	"fmt"
	"testing"
	"time"

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

// orderedSink keeps the serial reference loop from being optimised away.
var orderedSink uint64

// BenchmarkOrdered is an ordered loop whose iterations each do ≈400 ns of
// work and then fold it into an order-dependent hash in their ordered
// region: the ticket chain's cost with the work it has to hide. x-serial is
// the loop's time over the same loop run serially (below 1: the ordered loop
// still gains from its other threads). The four-thread team has threads
// parked in the ticket chain while the ticket moves, so it also measures
// what a hand-off costs the threads it wakes.
func BenchmarkOrdered(b *testing.B) {
	const trip = 4096
	work := func(i int64) uint64 {
		h := uint64(i) | 1
		for k := 0; k < 250; k++ { // a dependent multiply-xorshift chain
			h *= 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
		return h
	}
	serial := func() uint64 {
		var h uint64
		for i := int64(0); i < trip; i++ {
			h = h*31 + work(i)
		}
		return h
	}
	for _, n := range []int{2, 4} {
		for _, chunk := range []int64{1, 8} {
			b.Run(fmt.Sprintf("threads=%d/dynamic,%d", n, chunk), func(b *testing.B) {
				sched := kmp.Sched{Kind: kmp.SchedDynamicChunked, Chunk: chunk, Ordered: true}
				var h uint64
				ordered := func() {
					h = 0
					kmp.ForkCall(kmp.Ident{Region: "bench"}, n, func(t *kmp.Thread) {
						t.DispatchInit(kmp.Ident{}, sched, trip)
						for lo, hi, ok := t.DispatchNext(); ok; lo, hi, ok = t.DispatchNext() {
							for i := lo; i < hi; i++ {
								v := work(i)
								t.Ordered(func() { h = h*31 + v })
							}
						}
					})
				}
				want := serial()
				ordered() // warm the team
				if h != want {
					b.Fatalf("ordered fold %#x, serial fold %#x", h, want)
				}
				serialTime := time.Duration(1 << 62)
				for r := 0; r < 5; r++ {
					start := time.Now()
					orderedSink = serial()
					serialTime = min(serialTime, time.Since(start))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ordered()
				}
				b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(serialTime), "x-serial")
			})
		}
	}
}

// Warm fork/join at the kmp layer — no omp wrappers, no loop body. This is
// the floor every higher-level construct pays; the allocs/op column is the
// regression guard for the zero-allocation fast path. The flight=on/off
// pair is a fused static `parallel for` over an empty body at two threads
// with the flight recorder on and off: the recorder's cost on the warm path.
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
	for _, state := range []string{"on", "off"} {
		b.Run("flight="+state, func(b *testing.B) {
			prev := kmp.FlightRecording()
			kmp.SetFlightRecorder(state == "on")
			defer kmp.SetFlightRecorder(prev)
			loc, static := kmp.Ident{Region: "bench loop"}, kmp.Sched{Kind: kmp.SchedStatic}
			rng := func(t *kmp.Thread, lo, hi int64) {}
			kmp.ForkCallLoop(loc, 2, nil, static, 1024, rng, nil) // warm the team
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kmp.ForkCallLoop(loc, 2, nil, static, 1024, rng, nil)
			}
		})
	}
}
