package kmp

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
							tm.bar.wait(th, nil)
							if phase.Load() < int64(n*(g+1)) {
								early.Store(true)
							}
							tm.bar.wait(th, nil)
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

// `cancel for` and `cancel taskgroup` must release a peer parked past its
// spin budget in an ordered-ticket wait or a taskwait, within a bound no
// timer-polling wait could meet once its backoff has grown, and leave the
// team reusable. `cancel for` itself wakes the ordered waiter; a taskwait is
// woken when the cancelled group's last task finishes. A parked peer nobody
// wakes stays parked for good, which the watch below reports instead of
// hanging the test binary.
func TestCancelReleasesParkedOrderedAndTaskWaits(t *testing.T) {
	const bound = 100 * time.Millisecond
	// released runs cancelled, whose peer records when it was cancelled and
	// when it resumed, then reuse on the same goroutine (so on the same hot
	// team), and fails if either stalls or the peer resumed late.
	released := func(t *testing.T, n int, cancelled func(cancelAt, releasedAt *atomic.Int64) error) {
		t.Helper()
		var cancelAt, releasedAt atomic.Int64
		errs := make(chan error, 2)
		go func() {
			errs <- cancelled(&cancelAt, &releasedAt)
			errs <- reuseAfterCancel(n)
		}()
		for _, stage := range []string{"cancelled region", "region after cancellation"} {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: still waiting after 10s (a parked waiter was never woken)", stage)
			}
		}
		if d := time.Duration(releasedAt.Load() - cancelAt.Load()); d > bound {
			t.Errorf("parked waiter resumed %v after the cancel, want < %v", d, bound)
		}
	}
	// waitParked spins until th is in the wait under test (in was set just
	// before it) and has parked there.
	waitParked := func(th *Thread, in *atomic.Bool) {
		for !in.Load() || th.parked.Load() == 0 {
			runtime.Gosched()
		}
	}

	t.Run("cancel-for", func(t *testing.T) {
		released(t, 2, func(cancelAt, releasedAt *atomic.Int64) error {
			var inOrdered atomic.Bool
			var peer atomic.Pointer[Thread]
			return ForkCallErr(Ident{}, 2, nil, func(th *Thread) error {
				forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 1, Ordered: true}, 2, func(lo, hi int64) {
					if lo == 0 {
						// The holder of ticket 0 never runs its region: the
						// peer, holding iteration 1, waits for it and parks.
						for peer.Load() == nil {
							runtime.Gosched()
						}
						waitParked(peer.Load(), &inOrdered)
						cancelAt.Store(TraceNow())
						if !th.Cancel(CancelLoop) {
							t.Error("cancel for did not activate")
						}
						return
					}
					peer.Store(th)
					inOrdered.Store(true)
					th.Ordered(func() { t.Error("ordered region ran in a cancelled loop") })
					releasedAt.Store(TraceNow())
				})
				th.Barrier()
				return nil
			})
		})
	})

	t.Run("cancel-taskgroup", func(t *testing.T) {
		const n = 3
		released(t, n, func(cancelAt, releasedAt *atomic.Int64) error {
			var inTaskwait atomic.Bool
			var started atomic.Int32
			return ForkCallErr(Ident{}, n, nil, func(th *Thread) error {
				if th.Tid != 1 {
					// Take the peer's two tasks: one blocks until the group
					// is cancelled, the other cancels it once the peer has
					// parked in its taskwait.
					for started.Load() < 2 {
						th.Taskyield()
					}
					th.Barrier()
					return nil
				}
				peer := th
				th.TaskgroupRun(Ident{}, func() {
					th.SpawnTask(Ident{}, func(ex *Thread) {
						started.Add(1)
						for !ex.CancellationPoint(CancelTaskgroup) {
							runtime.Gosched()
						}
					}, TaskOpts{})
					th.SpawnTask(Ident{}, func(ex *Thread) {
						started.Add(1)
						waitParked(peer, &inTaskwait)
						cancelAt.Store(TraceNow())
						if !ex.Cancel(CancelTaskgroup) {
							t.Error("cancel taskgroup did not activate")
						}
					}, TaskOpts{})
					for started.Load() < 2 {
						runtime.Gosched()
					}
					inTaskwait.Store(true)
					th.Taskwait()
					releasedAt.Store(TraceNow())
				})
				th.Barrier()
				return nil
			})
		})
	})
}

// A task made ready while a teammate is parked in a taskwait must wake it:
// a spawn, and a dependence release. In each case the thread that made the
// task ready then holds on to its processor without running tasks (for up to
// a second), so the task only runs promptly if the parked waiter takes it.
func TestTaskWaitWakesOnReadyWork(t *testing.T) {
	const bound, hold = 100 * time.Millisecond, time.Second
	waitFor := func(ok func() bool, limit time.Duration) {
		for start := time.Now(); !ok() && time.Since(start) < limit; {
			runtime.Gosched()
		}
	}
	// run forks a team of two: thread 1 spawns through spawn and parks in a
	// taskwait once thread 0 has taken a task; thread 0 takes one and then
	// holds until the ready task has run (ranAt). The taken task calls parked
	// to wait for the peer to park, then makes a task ready at readyAt.
	run := func(t *testing.T, spawn func(th *Thread, readyAt, ranAt *atomic.Int64, parked func())) {
		var readyAt, ranAt atomic.Int64
		var taken, inTaskwait atomic.Bool
		ForkCall(Ident{}, 2, func(th *Thread) {
			if th.Tid == 0 {
				for !taken.Load() {
					th.Taskyield()
				}
				waitFor(func() bool { return ranAt.Load() != 0 }, hold)
				th.Barrier()
				return
			}
			peer := th
			spawn(th, &readyAt, &ranAt, func() {
				taken.Store(true)
				waitFor(func() bool { return inTaskwait.Load() && peer.parked.Load() != 0 }, hold)
			})
			for !taken.Load() {
				runtime.Gosched()
			}
			inTaskwait.Store(true)
			th.Taskwait()
			th.Barrier()
		})
		if ranAt.Load() == 0 {
			t.Fatal("the ready task never ran")
		}
		if d := time.Duration(ranAt.Load() - readyAt.Load()); d > bound {
			t.Errorf("ready task ran %v after it was made ready, want < %v: the parked waiter was not woken", d, bound)
		}
	}
	t.Run("spawn", func(t *testing.T) {
		run(t, func(th *Thread, readyAt, ranAt *atomic.Int64, parked func()) {
			th.SpawnTask(Ident{}, func(ex *Thread) {
				parked()
				readyAt.Store(TraceNow())
				ex.SpawnTask(Ident{}, func(*Thread) { ranAt.Store(TraceNow()) }, TaskOpts{})
				// Still the waiter's child: its taskwait cannot end first.
				waitFor(func() bool { return ranAt.Load() != 0 }, hold)
			}, TaskOpts{})
		})
	})
	t.Run("dep-release", func(t *testing.T) {
		run(t, func(th *Thread, readyAt, ranAt *atomic.Int64, parked func()) {
			var cell int
			th.SpawnTask(Ident{}, func(*Thread) {
				parked()
				readyAt.Store(TraceNow())
			}, TaskOpts{Deps: []DepSpec{{Addr: &cell, Mode: DepOut}}})
			th.SpawnTask(Ident{}, func(*Thread) { ranAt.Store(TraceNow()) },
				TaskOpts{Deps: []DepSpec{{Addr: &cell, Mode: DepIn}}})
		})
	})
}

// reuseAfterCancel runs an ordered loop and a taskgroup on a team of n: what
// a region after a cancelled ordered loop or taskgroup must still do right.
func reuseAfterCancel(n int) error {
	var got []int64
	var ran atomic.Int32
	err := ForkCallErr(Ident{}, n, nil, func(th *Thread) error {
		forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 2, Ordered: true}, 50, func(lo, hi int64) {
			for k := lo; k < hi; k++ {
				th.Ordered(func() { got = append(got, k) })
			}
		})
		th.TaskgroupRun(Ident{}, func() {
			for i := 0; i < 4; i++ {
				th.SpawnTask(Ident{}, func(*Thread) { ran.Add(1) }, TaskOpts{})
			}
		})
		th.Barrier()
		return nil
	})
	switch {
	case err != nil:
		return err
	case len(got) != 50 || !slices.IsSorted(got):
		return fmt.Errorf("ordered loop ran %v", got)
	case ran.Load() != int32(4*n):
		return fmt.Errorf("taskgroup ran %d of %d tasks", ran.Load(), 4*n)
	}
	return nil
}

// The task scheduling points on the one waiter: with a zero spin budget
// every taskwait, taskgroup end, dependence wait and barrier that finds no
// ready task parks at once, so a spawn, release or count reaching zero that
// does not wake it deadlocks the round (the test times out) and an early
// release breaks a count.
func TestTaskWaitNoLostWakeup(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 200
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			singleRan := make([]atomic.Int32, rounds)
			ForkCall(Ident{}, 4, func(th *Thread) {
				th.team.spinNs.Store(0) // reset by the next fork
				th.Barrier()
				rng := rand.New(rand.NewSource(int64(th.Tid)))
				delay := func() time.Duration { return time.Duration(rng.Intn(3000)) }
				for r := 0; r < rounds; r++ {
					var children atomic.Int32
					for c := 0; c < 3; c++ {
						d := delay()
						th.SpawnTask(Ident{}, func(*Thread) { busyWait(d); children.Add(1) }, TaskOpts{})
					}
					th.Taskwait()
					if got := children.Load(); got != 3 {
						t.Errorf("taskwait returned with %d of 3 children done", got)
					}

					var members atomic.Int32
					d := delay()
					th.TaskgroupRun(Ident{}, func() {
						th.SpawnTask(Ident{}, func(ex *Thread) {
							ex.SpawnTask(Ident{}, func(*Thread) { busyWait(d); members.Add(1) }, TaskOpts{})
							members.Add(1)
						}, TaskOpts{})
					})
					if got := members.Load(); got != 2 {
						t.Errorf("taskgroup ended with %d of 2 descendants done", got)
					}

					var cell int
					var seq atomic.Int32
					inout := TaskOpts{Deps: []DepSpec{{Addr: &cell, Mode: DepInOut}}}
					for i := int32(0); i < 3; i++ {
						d := delay()
						th.SpawnTask(Ident{}, func(*Thread) {
							busyWait(d)
							if !seq.CompareAndSwap(i, i+1) {
								t.Errorf("chain task %d ran at position %d", i, seq.Load())
							}
						}, inout)
					}
					undeferred := inout
					undeferred.Undeferred = true
					th.SpawnTask(Ident{}, func(*Thread) {
						if got := seq.Load(); got != 3 {
							t.Errorf("undeferred dependent task ran after %d of 3 predecessors", got)
						}
					}, undeferred)
					th.Taskwait()

					// The spawner is in single, its teammates parked in
					// single's barrier: the spawns must wake them.
					if th.Single() {
						for limit := time.Now().Add(time.Second); !parkedPeers(th) && time.Now().Before(limit); {
							runtime.Gosched()
						}
						for c := 0; c < 3; c++ {
							d := delay()
							th.SpawnTask(Ident{}, func(*Thread) { busyWait(d); singleRan[r].Add(1) }, TaskOpts{})
						}
					}
					th.Barrier()
					if got := singleRan[r].Load(); got != 3 {
						t.Errorf("single's barrier released with %d of 3 tasks done", got)
					}
				}
			})
		})
	}
}

// No wait may go back to polling a timer or blocking outside the one waiter:
// no non-test file of the package calls time.Sleep, and none but sync.go —
// whose NestLock is a user-facing lock, not a runtime wait — uses sync.Cond.
func TestWaitPathHasNoTimerSleep(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		if strings.Contains(string(src), "time.Sleep") {
			t.Errorf("%s calls time.Sleep: waits must spin, then park until woken", f)
		}
		if f != "sync.go" && (strings.Contains(string(src), "sync.Cond") || strings.Contains(string(src), "sync.NewCond")) {
			t.Errorf("%s uses sync.Cond: runtime waits go through (*Thread).wait", f)
		}
	}
	if checked < 10 {
		t.Fatalf("checked %d files; the glob no longer finds the package", checked)
	}
}
