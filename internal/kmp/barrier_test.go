package kmp

import (
	"sync/atomic"
	"testing"
)

// checkBarrier drives a team of n through gens generations and verifies no
// thread ever enters generation g+1 while another is still in g — the
// defining property of a barrier.
func checkBarrier(t *testing.T, n, gens int) {
	t.Helper()
	var phase atomic.Int64 // sum of per-thread generation counters
	var early atomic.Bool
	ForkCall(Ident{}, n, func(th *Thread) {
		if th.NumThreads() != n {
			t.Errorf("team of %d, want %d", th.NumThreads(), n)
		}
		for g := 0; g < gens; g++ {
			phase.Add(1)
			th.Barrier()
			// After the barrier, every thread must have arrived at
			// least g+1 times: the total is at least n*(g+1).
			if phase.Load() < int64(n*(g+1)) {
				early.Store(true)
			}
			th.Barrier() // separates the read from the next increment
		}
	})
	if early.Load() {
		t.Fatalf("barrier released a thread before all %d arrived", n)
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33} {
		checkBarrier(t, n, 25)
	}
}

// Oversubscription: far more threads than cores must still complete.
func TestBarrierOversubscribed(t *testing.T) {
	checkBarrier(t, 128, 5)
}
