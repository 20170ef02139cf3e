package kmp

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// busyWait holds the processor for d: a planted delay that, unlike a sleep,
// keeps the goroutine's thread running the way loop work does.
func busyWait(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// parkedPeers reports whether every thread of th's team but th itself has
// published its parked flag.
func parkedPeers(th *Thread) bool {
	for _, p := range th.team.threads[:th.team.n] {
		if p != th && p.parked.Load() == 0 {
			return false
		}
	}
	return true
}

// The lost-wakeup stress: a bare team whose spin budget is zero, so every
// waiter goes (almost) straight to the parked-flag/re-check/block sequence,
// while a random thread arrives at a random small delay and releases. A
// lost wakeup deadlocks the generation and the test times out; an early
// release breaks the phase sum. ≥1e5 generations over the matrix.
func TestWaitNoLostWakeup(t *testing.T) {
	gens := 12000
	if testing.Short() {
		gens = 2000
	}
	for _, procs := range []int{1, 2, 8} {
		for _, n := range []int{2, 4, 16} {
			t.Run(fmt.Sprintf("procs=%d/team=%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				tm := newTeamShell(n)
				for i := 1; i < n; i++ {
					tm.threads = append(tm.threads, newThread(tm, i))
				}
				tm.setWaitPolicy(WaitPassive)
				tm.spinNs.Store(0)
				var phase atomic.Int64
				var early atomic.Bool
				var wg sync.WaitGroup
				for _, th := range tm.threads {
					wg.Add(1)
					go func(th *Thread) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(th.Tid)))
						for g := 0; g < gens; g++ {
							if rng.Intn(n) == 0 {
								busyWait(time.Duration(rng.Intn(3000)))
							}
							phase.Add(1)
							tm.bar.wait(th)
							if phase.Load() < int64(n*(g+1)) {
								early.Store(true)
							}
							tm.bar.wait(th)
						}
					}(th)
				}
				wg.Wait()
				if early.Load() {
					t.Fatal("barrier released a thread before all arrived")
				}
			})
		}
	}
}

// A planted straggler: one thread reaches the barrier 200 µs after the
// others, which by then have exhausted their spin budget and parked. Every
// waiter must resume promptly after that arrival — a timer-polling wait
// cannot, once its backoff has passed the bound.
func TestWaitStragglerResume(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs the straggler and a waiter to run at once")
	}
	const late, bound = 200 * time.Microsecond, 100 * time.Microsecond
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("team=%d", n), func(t *testing.T) {
			const trials = 21
			worst := make([]time.Duration, trials) // slowest waiter per trial
			resumed := make([]int64, n)
			var arrival int64
			ForkCall(Ident{}, n, func(th *Thread) {
				for i := 0; i < trials; i++ {
					th.Barrier()
					if th.Tid == n-1 {
						busyWait(late)
						for !parkedPeers(th) { // the planted condition, not a guess at it
							runtime.Gosched()
						}
						arrival = TraceNow()
					}
					th.Barrier()
					resumed[th.Tid] = TraceNow()
					th.Barrier()
					if th.Tid == 0 {
						for _, r := range resumed[:n-1] {
							worst[i] = max(worst[i], time.Duration(r-arrival))
						}
					}
				}
			})
			slices.Sort(worst)
			if med := worst[trials/2]; med > bound {
				t.Fatalf("slowest waiter resumed %v after the straggler arrived (median of %d), want < %v", med, trials, bound)
			}
		})
	}
}

// Oversubscription progress: sixteen threads on two processors. Waiters
// yield rather than spin, so the threads still on their way get the
// processors and the barriers complete at scheduler speed.
func TestWaitOversubscribedProgress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, barriers, bound = 16, 10000, 60 * time.Second
	start := time.Now()
	ForkCall(Ident{}, n, func(th *Thread) {
		for i := 0; i < barriers; i++ {
			th.Barrier()
		}
	})
	if d := time.Since(start); d > bound {
		t.Fatalf("%d barriers of %d threads on 2 processors took %v, want < %v", barriers, n, d, bound)
	}
}

// Cancellation while the team is parked in a barrier: `cancel parallel` and
// context expiry must each release every parked thread, and the team must
// come back clean for the next region on the same goroutine.
func TestWaitCancelReleasesParked(t *testing.T) {
	const n = 4
	reuse := func(t *testing.T) {
		t.Helper()
		var sum atomic.Int64
		err := ForkCallErr(Ident{}, n, nil, func(th *Thread) error {
			for i := 0; i < 100; i++ {
				sum.Add(1)
				th.Barrier()
				if got := sum.Load(); got < int64(n*(i+1)) {
					return fmt.Errorf("barrier %d released at count %d", i, got)
				}
				th.Barrier()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("region after cancellation: %v", err)
		}
	}
	t.Run("cancel-parallel", func(t *testing.T) {
		err := ForkCallErr(Ident{}, n, nil, func(th *Thread) error {
			if th.Tid != 0 {
				th.Barrier() // never completes: thread 0 does not arrive
				return nil
			}
			for !parkedPeers(th) {
				runtime.Gosched()
			}
			th.Cancel(CancelParallel)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		reuse(t)
	})
	t.Run("context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		err := ForkCallErr(Ident{}, n, ctx, func(th *Thread) error {
			if th.Tid != 0 {
				th.Barrier()
				return nil
			}
			for !parkedPeers(th) {
				runtime.Gosched()
			}
			cancel()
			for !th.CancellationPoint(CancelParallel) {
				runtime.Gosched()
			}
			return nil
		})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		reuse(t)
	})
}

// No rendezvous may go back to polling a timer: the files that make up the
// wait path must not call time.Sleep.
func TestWaitPathHasNoTimerSleep(t *testing.T) {
	for _, f := range []string{"barrier.go", "cancel.go", "team.go", "wait.go"} {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "time.Sleep") {
			t.Errorf("%s calls time.Sleep: waits must spin, then park until woken", f)
		}
	}
}
