package bench

import (
	"runtime"
	"sync/atomic"
	"time"
)

// CrossCoreRoundTrip times rounds round trips of the cheapest possible
// two-goroutine handshake — each side spins on its own cache-line-padded
// atomic word and answers on the other's — and returns the total. One round
// trip is two cache-line hand-overs in each direction's critical path: the
// floor under one fork plus one join on this host, which the fork benchmarks
// report their cost against ("x-floor"). With a single processor there is no
// second core to answer — each hand-over would wait for a preemption — and
// the result is 0: no floor.
func CrossCoreRoundTrip(rounds int) time.Duration {
	if runtime.GOMAXPROCS(0) < 2 {
		return 0
	}
	var ping, pong struct {
		v atomic.Uint32
		_ [60]byte
	}
	done := make(chan struct{})
	go func() {
		for i := uint32(1); i <= uint32(rounds); i++ {
			for ping.v.Load() != i {
			}
			pong.v.Store(i)
		}
		close(done)
	}()
	start := time.Now()
	for i := uint32(1); i <= uint32(rounds); i++ {
		ping.v.Store(i)
		for pong.v.Load() != i {
		}
	}
	d := time.Since(start)
	<-done
	return d
}
