package kmp

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
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

// A barrier is a task scheduling point: a thread already waiting in it runs
// tasks a teammate spawns afterwards. The peer parks in single's barrier at
// once (a zero spin budget) before the single thread spawns two tasks that
// each wait for the other to start, so they finish only if the parked peer
// is woken to run one of them while the spawner runs the other.
func TestBarrierWaiterRunsTasks(t *testing.T) {
	const limit = 5 * time.Second
	var ranBy [2]atomic.Int32 // Tid+1 of the thread that ran each task
	var stuck, past atomic.Bool
	ForkCall(Ident{}, 2, func(th *Thread) {
		th.team.spinNs.Store(0) // reset by the next fork
		th.Barrier()
		if !th.Single() {
			past.Store(true) // so an in-barrier state read next is single's barrier
		} else {
			peer := th.team.threads[1-th.Tid]
			for start := time.Now(); time.Since(start) < limit; runtime.Gosched() {
				if s, _ := peer.StateWord(); past.Load() && s == StateInBarrier && peer.parked.Load() != 0 {
					break
				}
			}
			for i := range ranBy {
				th.SpawnTask(Ident{}, func(ex *Thread) {
					ranBy[i].Store(int32(ex.Tid) + 1)
					for start := time.Now(); ranBy[1-i].Load() == 0; runtime.Gosched() {
						if time.Since(start) > limit {
							stuck.Store(true)
							return
						}
					}
				}, TaskOpts{})
			}
		}
		th.Barrier()
	})
	if stuck.Load() {
		t.Fatalf("a task waited %v for its sibling to start: the parked barrier waiter did not run it", limit)
	}
	if a, b := ranBy[0].Load(), ranBy[1].Load(); a == b {
		t.Fatalf("both tasks ran on thread %d, want one on each thread", a-1)
	}
}

// A reduction's fold runs once per reduction, on the last arriver, before
// the release: it reads every thread's deposit in thread order, and every
// thread reads what it wrote once Reduce returns.
func TestReduceFoldsOnceInThreadOrder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		var folds atomic.Int64
		var shared uint64
		var bad atomic.Bool
		ForkCall(Ident{}, n, func(th *Thread) {
			for g := uint64(1); g <= 50; g++ {
				th.Reduce(g<<8|uint64(th.Tid), func(p Partials) {
					folds.Add(1)
					if p.Len() != n {
						bad.Store(true)
					}
					// Concatenate the tids in deposit order.
					acc := uint64(0)
					for i := range p.Len() {
						if p.At(i)>>8 != g {
							bad.Store(true)
						}
						acc = acc*16 + p.At(i)&0xff
					}
					shared = g<<32 | acc
				})
				want := uint64(0)
				for i := range n {
					want = want*16 + uint64(i)
				}
				if shared != g<<32|want {
					bad.Store(true)
				}
			}
		})
		if bad.Load() {
			t.Fatalf("n=%d: a fold saw deposits out of thread order or from another reduction, or a thread read a stale result", n)
		}
		if got := folds.Load(); got != 50 {
			t.Fatalf("n=%d: %d folds for 50 reductions", n, got)
		}
	}
}

// A cancelled region skips the fold, with a team of one too: the threads
// that branched to the region's end never deposited.
func TestReduceCancelledRegionSkipsFold(t *testing.T) {
	for _, n := range []int{1, 3} {
		var folds atomic.Int64
		ForkCallErr(Ident{}, n, nil, func(th *Thread) error {
			if th.Tid == 0 && !th.Cancel(CancelParallel) {
				t.Error("cancel not active in an error-mode region")
			}
			th.Reduce(1, func(Partials) { folds.Add(1) })
			return nil
		})
		if got := folds.Load(); got != 0 {
			t.Fatalf("n=%d: cancelled region ran %d folds", n, got)
		}
	}
}

// An orphaned reduction, run by no team, folds its own partial inline.
func TestReduceNilThreadFoldsInline(t *testing.T) {
	var th *Thread
	got := uint64(0)
	th.Reduce(42, func(p Partials) {
		if p.Len() != 1 {
			t.Errorf("inline fold over %d partials", p.Len())
		}
		got = p.At(0)
	})
	if got != 42 {
		t.Fatalf("inline fold read %d, want 42", got)
	}
}
